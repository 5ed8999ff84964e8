package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux cpu_set_t for up to 1024 processors.
type cpuMask [16]uint64

// allowedCPUs lists the processors the process may run on, or nil where
// the affinity cannot be read.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinProcess restricts every thread of the process to one processor.
// Threads the runtime starts later inherit the restriction from the
// thread that starts them.
func pinProcess(cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 && e != syscall.ESRCH {
			return e
		}
	}
	return nil
}

// pinRounds is how many passes pinFastest runs on each processor.
const pinRounds = 2

// pinFastest runs pinRounds passes on each processor the process may
// use, taking them in turn, and pins the process to the one with the
// fastest pass, which it returns (-1 when there is one processor or
// pinning fails). On a virtual machine whose processors share cores
// with other tenants, one processor can run the workloads a third
// slower than the other for minutes at a time, while a single-worker
// run would otherwise move between them.
func (b *bench) pinFastest() int {
	cpus := allowedCPUs()
	if len(cpus) < 2 {
		return -1
	}
	best, bestWall := -1, 0.0
	for range pinRounds {
		for _, c := range cpus {
			if pinProcess(c) != nil {
				return -1
			}
			if w := b.pass().wall; best < 0 || w < bestWall {
				best, bestWall = c, w
			}
		}
	}
	if pinProcess(best) != nil {
		return -1
	}
	return best
}
