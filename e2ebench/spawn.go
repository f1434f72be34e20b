package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// A process's peak RSS as getrusage reports it includes the peak RSS of
// the process that started it: the child shares its parent's memory
// between vfork and exec, and Linux carries that high-water mark over at
// exec. qsrmine is therefore started from a small helper process — this
// binary run with -spawn — whose own high-water mark is a few megabytes,
// instead of from the benchmark process, which holds the inputs and the
// references.

// spawnRequest asks the helper to run one program.
type spawnRequest struct {
	Path string
	Args []string
	Env  []string // added to the helper's environment
}

// spawnReply is the helper's answer; Stdout bytes of the program's
// standard output follow it.
type spawnReply struct {
	Wall, CPU time.Duration
	MaxRSSKB  int64
	Err       string
	Stdout    int
}

// procRun is one program run: wall time from start to exit with its
// output read, CPU time (user + system) and peak resident set size.
type procRun struct {
	wall, cpu time.Duration
	rssKB     int64
}

// serveSpawn is the helper: it reads one JSON request per line from r
// and, for each, runs the program and writes a reply line followed by
// the program's standard output to w, until r ends.
func serveSpawn(r io.Reader, w io.Writer) error {
	dec := json.NewDecoder(r)
	bw := bufio.NewWriter(w)
	var stdout, stderr bytes.Buffer
	for {
		var req spawnRequest
		if err := dec.Decode(&req); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		stdout.Reset()
		stderr.Reset()
		cmd := exec.Command(req.Path, req.Args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if req.Env != nil {
			cmd.Env = append(os.Environ(), req.Env...)
		}
		start := time.Now()
		err := cmd.Run()
		rep := spawnReply{Wall: time.Since(start)}
		if err != nil {
			rep.Err = fmt.Sprintf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		} else {
			rep.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				rep.MaxRSSKB = ru.Maxrss
			}
			rep.Stdout = stdout.Len()
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		bw.Write(append(line, '\n'))
		if rep.Err == "" {
			bw.Write(stdout.Bytes())
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// spawner is the benchmark's end of a helper process.
type spawner struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	out *bufio.Reader
}

func startSpawner() (*spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spawn")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the spawn helper: %w", err)
	}
	return &spawner{cmd: cmd, in: in, enc: json.NewEncoder(in), out: bufio.NewReader(out)}, nil
}

// run has the helper run path with args, and reads the program's
// standard output into stdout.
func (s *spawner) run(path string, args, env []string, stdout *bytes.Buffer) (procRun, error) {
	stdout.Reset()
	if err := s.enc.Encode(spawnRequest{Path: path, Args: args, Env: env}); err != nil {
		return procRun{}, fmt.Errorf("spawn helper: %w", err)
	}
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return procRun{}, fmt.Errorf("spawn helper: %w", err)
	}
	var rep spawnReply
	if err := json.Unmarshal(line, &rep); err != nil {
		return procRun{}, fmt.Errorf("spawn helper: %w", err)
	}
	if rep.Err != "" {
		return procRun{}, errors.New(rep.Err)
	}
	if _, err := io.CopyN(stdout, s.out, int64(rep.Stdout)); err != nil {
		return procRun{}, fmt.Errorf("spawn helper: %w", err)
	}
	return procRun{wall: rep.Wall, cpu: rep.CPU, rssKB: rep.MaxRSSKB}, nil
}

// close ends the helper and waits for it to exit.
func (s *spawner) close() error {
	s.in.Close()
	return s.cmd.Wait()
}
