// Command cmd is a package main: its exports are not API, so none is
// a finding.
package main

// Exported has no use, but package main exports nothing.
func Exported() {}

func main() {}
