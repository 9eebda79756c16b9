package main

import (
	"context"
	"fmt"
	"net"
	"strings"

	"autodbaas/internal/shard"
)

// runWorker is the -worker mode: a blank shard host serving the shard
// RPC protocol on -listen. The process carries no simulation state of
// its own — a coordinator dials in, pushes a shard config over the
// "init" RPC, and from then on drives provisioning, stepping and
// checkpointing remotely. Several workers plus one `-shard-map`
// coordinator form a multi-process deployment.
func runWorker(ctx context.Context, c cliConfig) error {
	network, addr := "tcp", c.Listen
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, addr = "unix", rest
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	fmt.Printf("shard worker on %s://%s (waiting for a coordinator)\n", network, l.Addr())
	err = shard.NewServer().Serve(l)
	if ctx.Err() != nil {
		fmt.Println("interrupted")
		return nil
	}
	return err
}
