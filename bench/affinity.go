package main

import (
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Every workload runs on one processor that never halts.
//
// One processor, because on this 2-vCPU VM the serving workloads are
// faster on one than on two (serve-batch32: 28.6 k against 25.1 k coins/s,
// at two thirds the CPU per coin; gw-http's median GET 140 µs against
// 420 µs): a round is a barrier over 7 or 13 goroutines, and waking one on
// the other vCPU costs more than running it in turn. That cost is the
// host's, moves with where it places the vCPUs, and made ten runs of one
// binary spread 10-35 %.
//
// Never halting, because an idle vCPU halts, and how long the host takes to
// run it again (it may poll for the wake-up or deschedule the vCPU, and
// chooses by recent history) is most of a request's latency at a fixed
// rate below capacity: gw-http's median moved between 150 and 450 µs from
// run to run. A process spinning at SCHED_IDLE priority runs only when the
// processor has nothing else to do and is preempted the moment it has.

// cpuMask is a processor set as sched_setaffinity(2) takes it: this
// benchmark is sized for a small box and handles the first 64 processors.
type cpuMask uint64

// threadAffinity reads the calling thread's allowed processors.
func threadAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// setProcessAffinity moves every thread of this process onto the given
// processors. A thread inherits its creator's set, so once the existing
// ones have moved, new ones (and subprocesses) start there; the second pass
// catches a thread created by one the first had not reached yet.
func setProcessAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited since the listing
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

// spinEnv, when set, turns this program (and its test binary) into the
// idle-priority spinner; see spinAtIdlePriority.
const spinEnv = "BENCH_IDLE_SPINNER"

// spinAtIdlePriority never returns: it moves the calling thread to the
// SCHED_IDLE class and spins, so that the processor it is confined to is
// never halted yet is free the moment anything else can run.
func spinAtIdlePriority() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench: idle spinner: sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(1)
	}
	for { //nolint:staticcheck // spinning is the point
	}
}

// onOneProcessor confines this process, and what it starts, to the
// highest-numbered processor it may use (the lowest takes most of the
// machine's interrupts), the Go scheduler to one running thread, and keeps
// that processor from halting with an idle-priority spinner beside it. The
// returned function undoes all three; it reports a spinner that did not
// last, because the run then measured another machine than it says.
func onOneProcessor() (restore func() error, err error) {
	allowed, err := threadAffinity()
	if err != nil {
		return nil, err
	}
	if allowed == 0 {
		return nil, fmt.Errorf("no processor within the first 64 is allowed to this process")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := setProcessAffinity(cpuMask(1) << (bits.Len64(uint64(allowed)) - 1)); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	undo := func() {
		runtime.GOMAXPROCS(procs)
		setProcessAffinity(allowed) //nolint:errcheck // the set it had a moment ago
	}
	spinner := exec.Command(self)
	spinner.Env = append(os.Environ(), spinEnv+"=1")
	spinner.Stderr = os.Stderr
	spinner.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no exit path strands it
	if err := spinner.Start(); err != nil {
		undo()
		return nil, fmt.Errorf("idle spinner: %w", err)
	}
	return func() error {
		defer undo()
		killErr := spinner.Process.Kill()
		spinner.Wait() //nolint:errcheck // killed: its status is the signal
		if killErr != nil {
			return fmt.Errorf("idle spinner exited during the run: %w", killErr)
		}
		return nil
	}, nil
}
