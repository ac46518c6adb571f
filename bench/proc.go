package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// userHz is the unit of the CPU times in /proc/<pid>/stat. Linux reports
// them in USER_HZ, which is 100 on every architecture Go supports.
const userHz = 100

// child is a process under test (or the echo floor) started by the
// benchmark. Its output goes to a log file so a failed start can be read.
type child struct {
	cmd *exec.Cmd
	pid int
	log *os.File
}

func startChild(logPath, bin string, args ...string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// Should the benchmark die before it can stop the child, the kernel
	// does. The signal is tied to the starting thread, which the wire
	// generator keeps for the whole run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return &child{cmd: cmd, pid: cmd.Process.Pid, log: log}, nil
}

// stop kills the child and waits until it has ended.
func (c *child) stop() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Kill() // already-exited is fine; Wait reaps either way
	_ = c.cmd.Wait()         // a killed child always reports an error
	c.log.Close()
}

// cpuSeconds returns the child's accumulated user and system CPU time
// (all threads) from /proc/<pid>/stat.
func cpuSeconds(pid int) (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: unexpected shape", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14: utime
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return float64(ut) / userHz, float64(st) / userHz, nil
}

// childCPUSeconds is the CPU time of every thread of the process, summed
// from the scheduler's nanosecond counters (/proc/<pid>/task/*/schedstat);
// a slice is too short for the 10 ms ticks of /proc/<pid>/stat, which
// remains the fallback where the kernel keeps no schedstat.
func childCPUSeconds(pid int) float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	if ns == 0 {
		u, s, _ := cpuSeconds(pid)
		return u + s
	}
	return float64(ns) / 1e9
}

// selfCPUSeconds is the CPU time (user + system) of the benchmark process
// itself, at the microsecond resolution getrusage offers.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// statusField reads one "Name:\t<value> ..." line of a /proc status file.
func statusField(path, name string) (int64, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) float64 {
	kb, _ := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024
}

// resetPeakRSS restarts this process's VmHWM at its current resident size
// (Linux ≥ 4.0). Where the kernel refuses, the mark simply stays.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// ctxSwitches sums voluntary and involuntary context switches over every
// thread of the process (the per-process status file covers only the main
// thread).
func ctxSwitches(pid int) int64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	var n int64
	for _, t := range tasks {
		v, _ := statusField(t, "voluntary_ctxt_switches")
		nv, _ := statusField(t, "nonvoluntary_ctxt_switches")
		n += v + nv
	}
	return n
}

// freeUDPPort asks the kernel for an unused loopback UDP port. The socket
// is closed again before the port is handed to a child, so another process
// could take it in between; a child that then fails to bind fails set-up.
func freeUDPPort() (int, error) {
	fd, port, err := udpSocket()
	if err != nil {
		return 0, err
	}
	syscall.Close(fd)
	return port, nil
}

// freeTCPPort is freeUDPPort for a TCP listener (the metrics endpoint).
func freeTCPPort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// udpSocket opens a non-blocking UDP socket bound to a kernel-chosen
// loopback port, with a 4 MiB receive buffer so that loss under load is the
// program's and not the generator's.
func udpSocket() (fd, port int, err error) {
	fd, err = syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("socket: %w", err)
	}
	const rcvbuf = 4 << 20
	// The kernel silently clamps SO_RCVBUF to rmem_max; the FORCE variant
	// (CAP_NET_ADMIN) lifts the clamp where allowed. Either is best effort.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, rcvbuf)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUFFORCE, rcvbuf)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		syscall.Close(fd)
		return 0, 0, fmt.Errorf("bind: %w", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return 0, 0, fmt.Errorf("getsockname: %w", err)
	}
	return fd, sa.(*syscall.SockaddrInet4).Port, nil
}

func connectLoopback(fd, port int) error {
	return syscall.Connect(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}, Port: port})
}

func loopback(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

// buildDir is where everything the benchmark builds or writes goes: inside
// the checkout, ignored by git.
func buildDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, ".bench_build")
	return dir, os.MkdirAll(dir, 0o755)
}

// repoRoot finds the checkout of the program under test: the nearest
// ancestor of the working directory holding cmd/diprouter.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "diprouter", "main.go")); err == nil && !st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cmd/diprouter not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildRouter compiles the program under test from source, outside every
// timed phase. go build skips the link when the binary is up to date.
func buildRouter() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir, err := buildDir()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "diprouter")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/diprouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/diprouter: %v\n%s", err, out)
	}
	note("built cmd/diprouter in %.2fs", time.Since(start).Seconds())
	return bin, nil
}

// setAffinity restricts the calling thread, and every process it starts
// from now on, to the CPUs set in mask (bit i = CPU i).
func setAffinity(mask uint64) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpus is how the machine is divided between the wire generator and the
// children it starts; the zero value leaves every thread where the kernel
// puts it.
type cpus struct{ children, generator uint64 }

// splitCPUs divides the CPUs this process may run on (which under a cpuset
// or in a container need not start at 0): the generator busy-polls, so it
// takes the highest for itself and leaves the others to the program under
// test. Left to the kernel, a spinning generator and a multi-threaded router
// share cores differently from run to run, and throughput and latency follow
// the placement rather than the code. With fewer than two CPUs, or more than
// a mask holds, nothing is separated, and the run says so.
func splitCPUs() cpus {
	var mask uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 || bits.OnesCount64(mask) < 2 {
		flagNote("generator and children are not pinned apart (sched_getaffinity: %v, allowed CPUs %#x): placement is the kernel's", errno, mask)
		return cpus{}
	}
	generator := uint64(1) << (63 - bits.LeadingZeros64(mask))
	return cpus{children: mask &^ generator, generator: generator}
}

// start starts a child on the children's CPUs and returns the calling
// thread to the generator's. The caller must have locked its goroutine to
// the thread. Where the kernel refuses the masks the child starts unpinned.
func (c *cpus) start(logPath, bin string, args ...string) (*child, error) {
	if c.children != 0 {
		if err := setAffinity(c.children); err != nil {
			flagNote("sched_setaffinity(%#x): %v: generator and children are not pinned apart", c.children, err)
			*c = cpus{}
		} else {
			defer setAffinity(c.generator) //nolint:errcheck // both masks come from the allowed set
		}
	}
	return startChild(logPath, bin, args...)
}
