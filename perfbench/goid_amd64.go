package main

// getg returns the address of the running goroutine's g struct. It is
// stable for the goroutine's lifetime, which is all the tracer needs.
func getg() uintptr

func goid() uintptr { return getg() }
