// Package scenarios embeds the built-in scenario library: one YAML
// campaign per file, runnable by name from cmd/autodbaas and swept by
// internal/scenario's TestLibraryBaseline.
package scenarios

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

//go:embed *.yaml
var files embed.FS

// Names lists the library scenarios (file basenames without .yaml),
// sorted.
func Names() []string {
	entries, err := files.ReadDir(".")
	if err != nil {
		// The embedded FS always has a readable root.
		panic(err)
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".yaml"))
	}
	sort.Strings(out)
	return out
}

// Source returns the YAML text of a library scenario by name.
func Source(name string) (string, error) {
	b, err := files.ReadFile(name + ".yaml")
	if err != nil {
		return "", fmt.Errorf("scenarios: no library scenario %q (have: %s)", name, strings.Join(Names(), ", "))
	}
	return string(b), nil
}
