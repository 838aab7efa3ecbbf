package atpg

// HardestFirst exposes GenerateAll's dispatch sort to the external tests that
// pin its order.
var HardestFirst = hardestFirst
