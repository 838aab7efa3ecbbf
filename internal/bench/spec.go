package bench

import "fmt"

// MaxWorkers bounds a campaign's worker budget. The budget only sizes the
// campaign's search-slot pool: every ATPG provider searches with one engine,
// one class at a time, so engines do not multiply with the budget, and slots
// beyond the provider count stay unused. The bound refuses nonsensical
// specs.
const MaxWorkers = 256

// Spec is a campaign's knobs over the benchmark design, the ones both front
// ends take: olfui as flags, olfuid as a run spec's JSON fields. Validate
// holds the one set of bounds both enforce.
type Spec struct {
	Width     int `json:"width"`      // datapath width
	Frames    int `json:"frames"`     // reach-scenario time frames
	MaxFrames int `json:"max_frames"` // >0 sweeps the reach scenario to this depth budget
	Workers   int `json:"workers"`    // campaign-wide worker budget (0 = NumCPU)
}

// Validate rejects a spec outside the accepted bounds, naming the knob.
func (s Spec) Validate() error {
	switch {
	case s.Width < 1 || s.Width > 64:
		return fmt.Errorf("width must be in [1,64], got %d", s.Width)
	case s.Frames < 1 || s.Frames > 12:
		return fmt.Errorf("frames must be in [1,12], got %d", s.Frames)
	case s.MaxFrames != 0 && s.MaxFrames < s.Frames:
		return fmt.Errorf("max_frames (%d) must be 0 or >= frames (%d)", s.MaxFrames, s.Frames)
	case s.MaxFrames > 16:
		return fmt.Errorf("max_frames must be <= 16, got %d", s.MaxFrames)
	case s.Workers < 0 || s.Workers > MaxWorkers:
		return fmt.Errorf("workers must be in [0,%d], got %d", MaxWorkers, s.Workers)
	}
	return nil
}
