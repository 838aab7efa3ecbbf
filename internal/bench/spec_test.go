package bench

import "testing"

// TestSpecValidate pins the bounds both front ends enforce: each edge of
// every knob's range is accepted, and one step past it is refused with a
// message naming the knob.
func TestSpecValidate(t *testing.T) {
	ok := Spec{Width: 8, Frames: 2}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		want string // "" = accepted
	}{
		{"defaults", func(*Spec) {}, ""},
		{"width 1", func(s *Spec) { s.Width = 1 }, ""},
		{"width 64", func(s *Spec) { s.Width = 64 }, ""},
		{"width 0", func(s *Spec) { s.Width = 0 }, "width must be in [1,64], got 0"},
		{"width 65", func(s *Spec) { s.Width = 65 }, "width must be in [1,64], got 65"},
		{"frames 1", func(s *Spec) { s.Frames = 1 }, ""},
		{"frames 12", func(s *Spec) { s.Frames = 12 }, ""},
		{"frames 0", func(s *Spec) { s.Frames = 0 }, "frames must be in [1,12], got 0"},
		{"frames 40", func(s *Spec) { s.Frames = 40 }, "frames must be in [1,12], got 40"},
		{"max_frames at frames", func(s *Spec) { s.MaxFrames = 2 }, ""},
		{"max_frames 16", func(s *Spec) { s.MaxFrames = 16 }, ""},
		{"max_frames below frames", func(s *Spec) { s.Frames, s.MaxFrames = 4, 3 },
			"max_frames (3) must be 0 or >= frames (4)"},
		{"max_frames negative", func(s *Spec) { s.MaxFrames = -1 }, "max_frames (-1) must be 0 or >= frames (2)"},
		{"max_frames 17", func(s *Spec) { s.MaxFrames = 17 }, "max_frames must be <= 16, got 17"},
		{"workers 256", func(s *Spec) { s.Workers = MaxWorkers }, ""},
		{"workers -5", func(s *Spec) { s.Workers = -5 }, "workers must be in [0,256], got -5"},
		{"workers 257", func(s *Spec) { s.Workers = 257 }, "workers must be in [0,256], got 257"},
	} {
		s := ok
		tc.edit(&s)
		err := s.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %+v refused: %v", tc.name, s, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: %+v: err %v, want %q", tc.name, s, err, tc.want)
		}
	}
}
