// Command peakrss runs a command and reports its peak resident set
// size without the caller's own.
//
//	peakrss OUT COMMAND [ARG...]
//
// On Linux a child's max RSS, as wait4 reports it, starts from the
// memory high-water mark of the process that execs it, because the
// child begins on its parent's address space. A large parent therefore
// sets a floor under the reading. peakrss is small, so that floor is
// its own mark. It writes to OUT two numbers in KiB: its own VmHWM,
// read after the command ended, which bounds the floor, and the
// command's max RSS. Standard input, output and error pass through, and
// the exit code is the command's.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: peakrss OUT COMMAND [ARG...]")
		os.Exit(2)
	}
	c := exec.Command(os.Args[2], os.Args[3:]...)
	c.Stdin, c.Stdout, c.Stderr = os.Stdin, os.Stdout, os.Stderr
	err := c.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		fmt.Fprintf(os.Stderr, "peakrss: %v\n", err)
		os.Exit(1)
	}
	own, herr := ownHWM()
	ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage)
	if herr != nil || !ok {
		fmt.Fprintf(os.Stderr, "peakrss: no memory readings: %v\n", herr)
		os.Exit(1)
	}
	if err := os.WriteFile(os.Args[1], fmt.Appendf(nil, "%d %d\n", own, ru.Maxrss), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "peakrss: %v\n", err)
		os.Exit(1)
	}
	os.Exit(c.ProcessState.ExitCode())
}

// ownHWM reads this process's VmHWM in KiB.
func ownHWM() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var kb int64
		if _, err := fmt.Sscanf(string(line), "VmHWM: %d kB", &kb); err == nil {
			return kb, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
