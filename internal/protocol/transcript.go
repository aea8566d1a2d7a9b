package protocol

import (
	"fmt"
	"strings"
	"time"
)

// Direction of a transcript step.
type Direction int

// Directions.
const (
	DeviceToServer Direction = iota
	ServerToDevice
	Internal // steps inside the FLock module (capture, verify, sign)
)

func (d Direction) String() string {
	switch d {
	case DeviceToServer:
		return "device->server"
	case ServerToDevice:
		return "server->device"
	case Internal:
		return "flock"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Step is one transcript line.
type Step struct {
	At      time.Duration
	Dir     Direction
	Message string // message type, e.g. "RegistrationPage"
	Detail  string // human-readable summary of the load-bearing fields
	OK      bool   // verification outcome where applicable
}

// Transcript records a protocol run — the benchtab rendition of the
// paper's Fig 9 and Fig 10 message diagrams.
type Transcript struct {
	Title string
	Steps []Step
}

// Add appends a step.
func (t *Transcript) Add(at time.Duration, dir Direction, msg, detail string, ok bool) {
	t.Steps = append(t.Steps, Step{At: at, Dir: dir, Message: msg, Detail: detail, OK: ok})
}

// String renders the transcript as an aligned text diagram.
func (t *Transcript) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	for _, s := range t.Steps {
		status := "ok"
		if !s.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%10s  %-16s %-20s %-4s %s\n",
			s.At.Round(time.Millisecond), s.Dir, s.Message, status, s.Detail)
	}
	return sb.String()
}
