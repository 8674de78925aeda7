package a

// Used is referenced by cmd/x.
func Used() int { return shared() }

// OnlyTest is referenced by a_test.go alone: flagged.
func OnlyTest() int { return Used() }

// BenchOnly is referenced by the bench/ harness alone.
func BenchOnly() {}

// ResetForTest is a test hook the allowlist keeps.
func ResetForTest() {}

// Recursive refers only to itself: flagged.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Node refers only to itself: flagged.
type Node struct {
	Next *Node
}

// Codec is referenced by cmd/x.
type Codec struct{}

// MarshalJSON is called by encoding/json; the allowlist keeps it.
func (Codec) MarshalJSON() ([]byte, error) { return []byte(`{}`), nil }

// Name is called by cmd/x.
func (Codec) Name() string { return Label }

// Now shares its name with time.Now, which cmd/x calls: flagged.
func (Codec) Now() int { return 0 }

// Tag is called by cmd/x through a local that shadows the import.
func (Codec) Tag() string { return "" }

// Unbuilt is mentioned only by its method's receiver: flagged.
type Unbuilt struct{}

// Name passes on the selector name Codec.Name shares with it.
func (Unbuilt) Name() string { return "" }
