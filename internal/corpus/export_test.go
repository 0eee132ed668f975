package corpus

// The pipeline's two constants, for the tests that state its memory bound.
const (
	BatchBytes       = batchBytes
	BatchesPerWorker = batchesPerWorker
)
