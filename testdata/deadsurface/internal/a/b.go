package a

// Label is referenced only inside its own package.
const Label = "codec"

func shared() int { return len(Label) }
