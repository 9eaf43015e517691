package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func main() {
	var s b.Shaper = a.T{}
	fmt.Println(s.Shape(), b.U{}.HasOutput(), a.G[int]{}.Gen())
}
