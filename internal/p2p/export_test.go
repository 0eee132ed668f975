package p2p

// The frame codec under the names frame_test.go (package p2p_test) uses: its
// fuzz target seeds with a message package core registers, and core imports
// p2p.
type (
	WireFrame = wireFrame
	Hello     = hello
)

var (
	ReadFrame  = readFrame
	WriteFrame = writeFrame
)
