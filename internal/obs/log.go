package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a logging severity.
type Level int32

// Levels, increasing severity. LevelOff disables all output.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return "OFF"
	}
}

// Logger is a minimal leveled logger. The zero value is unusable; use
// NewLogger. Disabled levels cost one atomic load — cheap enough to
// leave Debugf calls in hot-ish paths.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
}

// NewLogger returns a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	l := &Logger{w: w}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the minimum emitted level.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// Enabled reports whether a message at level would be emitted.
func (l *Logger) Enabled(level Level) bool { return level >= Level(l.level.Load()) }

func (l *Logger) logf(level Level, format string, args ...interface{}) {
	if !l.Enabled(level) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	ts := time.Now().UTC().Format("2006-01-02T15:04:05.000Z")
	l.mu.Lock()
	fmt.Fprintf(l.w, "%s %-5s %s\n", ts, level, msg)
	l.mu.Unlock()
}

// Debugf logs at debug level.
func (l *Logger) Debugf(format string, args ...interface{}) { l.logf(LevelDebug, format, args...) }

// defaultLogger is quiet by default (warnings and errors only) so
// `go test ./...` output stays clean; AUTODBAAS_LOG=debug opens it up.
var defaultLogger = NewLogger(os.Stderr, LevelWarn)

// SetLevel sets the process-wide logger's level.
func SetLevel(level Level) { defaultLogger.SetLevel(level) }

// Debugf logs to the process-wide logger.
func Debugf(format string, args ...interface{}) { defaultLogger.Debugf(format, args...) }
