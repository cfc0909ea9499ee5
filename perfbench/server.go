package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// server is one running sdserver process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	args []string
	log  *os.File
	// done is closed once the process has exited and been reaped.
	done chan struct{}
	// setup is exec → first successful decode.
	setup time.Duration
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin with args on a fresh loopback port and waits until
// probe (a single-frame decode body) is answered with the expected symbols.
// The returned server's setup field is the time from exec to that answer.
func startServer(bin string, args []string, logPath string, probe []byte, want []int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)
	s := &server{
		cmd:  exec.Command(bin, full...),
		base: "http://127.0.0.1:" + strconv.Itoa(port),
		args: full,
		log:  logf,
	}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting sdserver: %w", err)
	}
	s.done = make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.done)
	}()
	for {
		ok, err := probeDecode(client, s.base, probe, want)
		if ok {
			s.setup = time.Since(t0)
			return s, nil
		}
		select {
		case <-s.done:
			err = errors.New("sdserver exited")
		default:
			if err == nil && time.Since(t0) > 30*time.Second {
				err = errors.New("no successful decode within 30s")
			}
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("sdserver set-up (log %s): %w", logPath, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// probeDecode posts one single-frame body. ok reports a 200 answer with the
// expected symbols; a refused connection is (false, nil) so the caller keeps
// polling, while a wrong answer is an error.
func probeDecode(client *http.Client, base string, body []byte, want []int) (bool, error) {
	resp, err := client.Post(base+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	var out serve.DecodeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, fmt.Errorf("probe response: %w", err)
	}
	if !slices.Equal(out.SymbolIndices, want) {
		return false, fmt.Errorf("probe decoded %v, ML reference is %v", out.SymbolIndices, want)
	}
	return true, nil
}

// stop sends SIGTERM (sdserver drains and exits), escalates to SIGKILL after
// ten seconds, and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// procStats is a sample of the server process's resource use.
type procStats struct {
	cpu     time.Duration // user + system
	peakRSS float64       // MiB, VmHWM
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// readProc samples /proc/<pid>/stat and /proc/<pid>/status.
func readProc(pid int) (procStats, error) {
	var st procStats
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	sy, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return st, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	st.cpu = time.Duration(ut+sy) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return st, fmt.Errorf("parsing VmHWM: %w", err)
			}
			st.peakRSS = kb / 1024
		}
	}
	return st, nil
}

// getJSON fetches url into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
