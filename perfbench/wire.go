package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/epochwire"
)

// frameParser splits one direction of an epochwire connection into
// messages as its bytes pass through a conn wrapper: the handshake
// record first (read by opener), then framed messages. Bytes arrive in
// whatever pieces the connection delivers; an incomplete message waits
// for the next piece.
type frameParser struct {
	buf    []byte
	opener func(*bufio.Reader) error
	err    error
}

func newFrameParser(opener func(*bufio.Reader) error) *frameParser {
	return &frameParser{opener: opener}
}

// feed appends p and calls emit for every message it completes.
func (fp *frameParser) feed(p []byte, emit func(*epochwire.Message)) {
	if fp.err != nil {
		return
	}
	fp.buf = append(fp.buf, p...)
	for len(fp.buf) > 0 {
		r := bytes.NewReader(fp.buf)
		br := bufio.NewReaderSize(r, len(fp.buf))
		var msg *epochwire.Message
		var err error
		if fp.opener != nil {
			err = fp.opener(br)
		} else {
			msg, err = epochwire.ReadMessage(br)
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return
		}
		if err != nil {
			fp.err = err
			return
		}
		used := len(fp.buf) - r.Len() - br.Buffered()
		fp.buf = append(fp.buf[:0], fp.buf[used:]...)
		if fp.opener != nil {
			fp.opener = nil
			continue
		}
		emit(msg)
	}
}

func readHello(r *bufio.Reader) error   { _, err := epochwire.ReadHello(r); return err }
func readWelcome(r *bufio.Reader) error { _, err := epochwire.ReadWelcome(r); return err }

// wireStats gathers what the traced connection wrappers observe across
// every connection of one ship run.
type wireStats struct {
	mu         sync.Mutex
	wireBytes  int64
	resends    int64
	ackRTT     []float64 // ms, probe side: epoch written → its ack read
	turnaround []float64 // ms, aggregator side: epoch read → its ack written
	err        error
}

func (w *wireStats) fail(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// probeConn wraps a shipper's connection (ShipperConfig.Dial): it
// stamps when each epoch or fin message is fully written and matches
// the acks read back to those stamps.
type probeConn struct {
	net.Conn
	st      *wireStats
	sentAt  map[uint64]time.Time // unacked seq → write time
	sent    map[uint64]bool      // probe-wide: every seq ever written
	out, in *frameParser
}

func (c *probeConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.st.wireBytes += int64(n)
	c.out.feed(p[:n], func(m *epochwire.Message) {
		if m.Type != epochwire.MsgEpoch && m.Type != epochwire.MsgFin {
			return
		}
		if c.sent[m.Seq] {
			c.st.resends++
		}
		c.sent[m.Seq] = true
		c.sentAt[m.Seq] = now
	})
	c.st.fail(c.out.err)
	return n, err
}

func (c *probeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.in.feed(p[:n], func(m *epochwire.Message) {
		if m.Type != epochwire.MsgAck {
			return
		}
		if at, ok := c.sentAt[m.Seq]; ok {
			c.st.ackRTT = append(c.st.ackRTT, ms(now.Sub(at)))
			delete(c.sentAt, m.Seq)
		}
	})
	c.st.fail(c.in.err)
	return n, err
}

// dialer returns a ShipperConfig.Dial that wraps every connection of
// one probe.
func (w *wireStats) dialer() func(network, addr string) (net.Conn, error) {
	sent := map[uint64]bool{}
	return func(network, addr string) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, 30*time.Second)
		if err != nil {
			return nil, err
		}
		return &probeConn{Conn: conn, st: w, sentAt: map[uint64]time.Time{}, sent: sent,
			out: newFrameParser(readHello), in: newFrameParser(readWelcome)}, nil
	}
}

// aggConn wraps an accepted connection (AggConfig.WrapConn): it stamps
// when each epoch or fin message's last byte is read and measures the
// time until the aggregator writes that seq's ack.
type aggConn struct {
	net.Conn
	st      *wireStats
	readAt  map[uint64]time.Time
	in, out *frameParser
}

func (c *aggConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.in.feed(p[:n], func(m *epochwire.Message) {
		if m.Type == epochwire.MsgEpoch || m.Type == epochwire.MsgFin {
			c.readAt[m.Seq] = now
		}
	})
	c.st.fail(c.in.err)
	return n, err
}

func (c *aggConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.out.feed(p[:n], func(m *epochwire.Message) {
		if m.Type != epochwire.MsgAck {
			return
		}
		if at, ok := c.readAt[m.Seq]; ok {
			c.st.turnaround = append(c.st.turnaround, ms(now.Sub(at)))
			delete(c.readAt, m.Seq)
		}
	})
	c.st.fail(c.out.err)
	return n, err
}

func (w *wireStats) wrapConn(conn net.Conn) net.Conn {
	return &aggConn{Conn: conn, st: w, readAt: map[uint64]time.Time{},
		in: newFrameParser(readHello), out: newFrameParser(readWelcome)}
}

// countingFS wraps the OS filesystem (the chaos.FS seam of
// ShipperConfig.FS and AggConfig.FS) and accounts bytes written and
// time spent in Sync. For the aggregator it also times each state
// persist: the atomic rewrite from opening path.tmp to the directory
// sync after the rename.
type countingFS struct {
	chaos.FS
	mu        sync.Mutex
	statePath string // "" for a spool
	written   int64
	syncNs    int64
	persists  int64
	persistNs int64
	openedAt  time.Time
}

func (fs *countingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	switch {
	case fs.statePath == "":
	case name == fs.statePath+".tmp":
		fs.mu.Lock()
		fs.openedAt = time.Now()
		fs.mu.Unlock()
	default:
		return f, nil
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) SyncDir(dir string) error {
	err := fs.FS.SyncDir(dir)
	fs.mu.Lock()
	if !fs.openedAt.IsZero() {
		fs.persists++
		fs.persistNs += int64(time.Since(fs.openedAt))
		fs.openedAt = time.Time{}
	}
	fs.mu.Unlock()
	return err
}

type countingFile struct {
	chaos.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.mu.Lock()
	f.fs.syncNs += int64(time.Since(start))
	f.fs.mu.Unlock()
	return err
}
