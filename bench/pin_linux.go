package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pin binds every thread the process has now to one CPU, or with cpu < 0 to
// all of them again; threads started later inherit that from the thread that
// starts them. Where the CPU is not the process's to use, the call fails and
// the process stays where it was.
func pin(cpu int) {
	var mask [16]uint64
	if cpu >= 0 {
		mask[cpu/64] = 1 << (cpu % 64)
	} else {
		for i := range mask {
			mask[i] = ^uint64(0)
		}
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
		}
	}
}
