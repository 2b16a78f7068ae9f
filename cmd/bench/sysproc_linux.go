package main

import (
	"os/exec"
	"syscall"
)

// killWithParent makes the kernel kill cmd's process if the benchmark
// dies first, so a killed run never leaves a rapidsd behind.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
