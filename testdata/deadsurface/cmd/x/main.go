package main

import (
	"fmt"
	"time"

	"fixture/internal/a"
)

func main() {
	fmt.Println(a.Used(), a.Codec{}.Name(), time.Now())
	shadowed()
}

// shadowed calls Codec.Tag through a local that shadows the import.
func shadowed() {
	a := a.Codec{}
	fmt.Println(a.Tag())
}
