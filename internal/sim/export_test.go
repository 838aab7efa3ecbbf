package sim

// ObservableFaults exposes the sequential grader's structural screen to the
// external tests that check it is sound.
var ObservableFaults = observableFaults
