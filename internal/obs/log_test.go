package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoggerLevels(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, LevelWarn)
	l.Debugf("nope %d", 1)
	if b.Len() != 0 {
		t.Errorf("suppressed level leaked:\n%s", b.String())
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelWarn) || !l.Enabled(LevelError) {
		t.Error("a warn-level logger enables the wrong levels")
	}
	l.SetLevel(LevelDebug)
	l.Debugf("now visible %d", 2)
	if !strings.Contains(b.String(), "DEBUG now visible 2") {
		t.Errorf("level change ignored:\n%s", b.String())
	}
	l.SetLevel(LevelOff)
	l.Debugf("silenced")
	if strings.Contains(b.String(), "silenced") || l.Enabled(LevelError) {
		t.Error("LevelOff still emits")
	}
}

func TestDefaultLoggerQuiet(t *testing.T) {
	// The package default must be quiet below Warn so test output
	// stays clean.
	if defaultLogger.Enabled(LevelInfo) {
		t.Error("default logger emits at info level")
	}
}
