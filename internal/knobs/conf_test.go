package knobs

import (
	"strings"
	"testing"
)

func TestRenderConfPostgresShape(t *testing.T) {
	cat := PostgresCatalog()
	out := cat.RenderConf(Config{
		"work_mem":           4 * 1024 * 1024,
		"shared_buffers":     1 << 30,
		"checkpoint_timeout": 300_000,
		"random_page_cost":   4,
	})
	for _, want := range []string{
		"work_mem = 4MB",
		"shared_buffers = 1GB",
		"checkpoint_timeout = 300s",
		"random_page_cost = 4",
		"# memory knobs",
		"# bgwriter knobs",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "[mysqld]") {
		t.Fatal("postgres conf has a mysql section header")
	}
}

func TestRenderConfMySQLHeader(t *testing.T) {
	cat := MySQLCatalog()
	out := cat.RenderConf(Config{"sort_buffer_size": 256 * 1024})
	if !strings.HasPrefix(out, "[mysqld]\n") {
		t.Fatalf("missing section header:\n%s", out)
	}
	if !strings.Contains(out, "sort_buffer_size = 256kB") {
		t.Fatalf("value formatting wrong:\n%s", out)
	}
}
