//go:build !linux

package main

import "os/exec"

// killWithParent is a no-op off Linux, which has no parent-death signal.
func killWithParent(*exec.Cmd) {}
