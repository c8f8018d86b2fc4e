package simprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a pprof CPU profile at path and returns the
// function that stops it and closes the file. An empty path is a no-op
// (the returned stop is still non-nil) — the -cpuprofile flag plumbing
// shared by the commands.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// Session is the -cpuprofile / -memprofile / -simprof-out plumbing
// every command shares: NewSession declares the three flags, Open starts
// the CPU profile and (when a simprof path is given) creates the Profiler,
// Close stops the CPU profile and writes the heap profile and the
// simprof report. All three paths are individually optional.
type Session struct {
	// Prof is non-nil only when a -simprof-out path was given; callers
	// pass it (or its nil) straight into the eval config.
	Prof *Profiler

	cpuPath, memPath, simprofPath string
	cpuStop                       func() error
}

// NewSession declares the three profile flags on fs and returns the
// session they configure, to Open once fs is parsed.
func NewSession(fs *flag.FlagSet) *Session {
	s := &Session{}
	fs.StringVar(&s.cpuPath, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&s.memPath, "memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	fs.StringVar(&s.simprofPath, "simprof-out", "", "self-profile the simulator's hot paths and write the simprof JSON report to this file")
	return s
}

// Open starts the session the parsed flags ask for, sampling every
// event-loop pass.
func (s *Session) Open() error {
	if s.simprofPath != "" {
		s.Prof = New(1)
	}
	stop, err := StartCPUProfile(s.cpuPath)
	s.cpuStop = stop
	return err
}

// Close finishes the session: stops the CPU profile, then writes the
// heap profile and the simprof report. The first error wins but every
// step runs.
func (s *Session) Close() error {
	err := s.cpuStop()
	if e := WriteHeapProfile(s.memPath); err == nil {
		err = e
	}
	if e := s.Prof.WriteFile(s.simprofPath); err == nil {
		err = e
	}
	if err != nil {
		return fmt.Errorf("writing profiles: %w", err)
	}
	return nil
}

// WriteHeapProfile writes a pprof heap profile to path after a full GC
// (so the profile reflects live objects, not collectable garbage). An
// empty path is a no-op — the -memprofile flag plumbing.
func WriteHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
