package dist

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// shortTCP bounds every operation tightly so fault tests finish fast:
// a stalled or dead peer must surface within these deadlines.
var shortTCP = TCPOptions{
	DialTimeout:  2 * time.Second,
	ReadTimeout:  500 * time.Millisecond,
	WriteTimeout: 500 * time.Millisecond,
}

// An injected send failure must error out the faulty rank immediately
// and the healthy peer within the read deadline — never deadlock the
// exchange, in either mode.
func TestInjectedFailureSurfacesWithinDeadline(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		ts := newTCPCluster(t, 2, shortTCP)
		faulty := NewFaultTransport(ts[0])
		faulty.FailSendAfter(0)

		cfg := testConfig(64, 24)
		initial := grid.NewGrid2D(64, 24, 1, 1)
		initial.Fill(func(x, y int) float64 { return 1 })

		ranks := [2]*Rank{}
		for i, tr := range []Transport{faulty, ts[1]} {
			r, err := NewRank(i, 2, tr, cfg, stencil.Heat2D, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.SetOverlap(overlap)
			if err := r.Scatter(initial); err != nil {
				t.Fatal(err)
			}
			ranks[i] = r
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := [2]error{}
		for i := range ranks {
			wg.Add(1)
			go func(i int) { defer wg.Done(); errs[i] = ranks[i].Run(6) }(i)
		}
		wg.Wait()
		if !errors.Is(errs[0], ErrInjected) {
			t.Errorf("overlap=%v: faulty rank returned %v, want ErrInjected", overlap, errs[0])
		}
		if errs[1] == nil {
			t.Errorf("overlap=%v: healthy peer of a dead rank returned nil", overlap)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("overlap=%v: errors took %v to surface (deadline 500ms)", overlap, el)
		}
	}
}

// A delayed peer must slow the run down, not break it: results stay
// bitwise identical to the reference.
func TestDelayedPeerStaysCorrect(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		ts := newTCPCluster(t, 2, TCPOptions{})
		slow := NewFaultTransport(ts[0])
		slow.SetSendDelay(2 * time.Millisecond)
		wrapped := []Transport{slow, ts[1]}

		nx, ny := 64, 24
		cfg := testConfig(nx, ny)
		initial := grid.NewGrid2D(nx, ny, 1, 1)
		rng := rand.New(rand.NewSource(3))
		initial.Fill(func(x, y int) float64 { return rng.Float64() })
		ref := initial.Clone()
		naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), 6, nil, nil)

		got := runClusterMode(t, wrapped, cfg, stencil.Heat2D, initial, 6, overlap)
		if r := verify.Grids2D(got, ref); !r.Equal {
			t.Fatalf("overlap=%v: %v", overlap, r.Error("delayed-peer"))
		}
	}
}

// Closing a peer's transport mid-exchange must error the survivor
// within the deadline, in both modes, under -race.
func TestMidExchangeDropSurfaces(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		ts := newTCPCluster(t, 2, shortTCP)
		cfg := testConfig(64, 24)
		initial := grid.NewGrid2D(64, 24, 1, 1)
		initial.Fill(func(x, y int) float64 { return 1 })

		r, err := NewRank(0, 2, ts[0], cfg, stencil.Heat2D, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.SetOverlap(overlap)
		if err := r.Scatter(initial); err != nil {
			t.Fatal(err)
		}
		// Rank 1 never runs; it just drops its transport shortly after
		// rank 0 starts waiting on it.
		go func() {
			time.Sleep(50 * time.Millisecond)
			ts[1].(*TCPTransport).Close()
		}()
		start := time.Now()
		err = r.Run(6)
		if err == nil {
			t.Fatalf("overlap=%v: run against a dropped peer succeeded", overlap)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("overlap=%v: drop took %v to surface", overlap, el)
		}
	}
}

// dialAs completes the wire handshake pretending to be the given rank,
// returning the raw connection for byte-level abuse.
func dialAs(t *testing.T, addr string, rank int) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [handshakeLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], tcpMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], tcpVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(rank))
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	return c
}

// A peer that dies after a partial frame write must produce an error,
// not a hang or silent corruption.
func TestPartialWriteErrors(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	b, err := NewTCPTransportOpts(1, addrs, shortTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Half a frame header, then hang up.
	c := dialAs(t, b.Addr(), 0)
	c.Write([]byte{0x46, 0x53})
	c.Close()
	if err := b.Recv(0, make([]float64, 4)); err == nil {
		t.Fatal("partial header accepted")
	}
}

// A peer that sends a full header but dies mid-payload must error too.
func TestPartialPayloadErrors(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	b, err := NewTCPTransportOpts(1, addrs, shortTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c := dialAs(t, b.Addr(), 0)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], 4)
	c.Write(hdr[:])
	c.Write(make([]byte, 8)) // 1 of 4 floats
	c.Close()
	if err := b.Recv(0, make([]float64, 4)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// Garbage where a frame header should be must be detected by the frame
// magic, which is what catches desynced or version-skewed streams.
func TestBadFrameMagicErrors(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	b, err := NewTCPTransportOpts(1, addrs, shortTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c := dialAs(t, b.Addr(), 0)
	defer c.Close()
	c.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	err = b.Recv(0, make([]float64, 1))
	if err == nil || !strings.Contains(err.Error(), "frame magic") {
		t.Fatalf("bad magic produced %v", err)
	}
}

// A peer that completes the handshake and then stalls must trip the
// read deadline, never hang Recv.
func TestStalledPeerTripsDeadline(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	b, err := NewTCPTransportOpts(1, addrs, shortTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c := dialAs(t, b.Addr(), 0)
	defer c.Close()
	start := time.Now()
	err = b.Recv(0, make([]float64, 1))
	if err == nil {
		t.Fatal("stalled peer's Recv returned nil")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled peer produced %v, want a timeout", err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("deadline took %v to fire (configured 500ms)", el)
	}
}

// A dead-from-the-start peer (nothing listening) must fail the dial
// within DialTimeout.
func TestDeadPeerFailsDial(t *testing.T) {
	// Reserve a port, then close it so nothing is listening there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	opts := shortTCP
	opts.DialTimeout = 300 * time.Millisecond
	a, err := NewTCPTransportOpts(0, []string{"127.0.0.1:0", dead}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	if err := a.Send(1, []float64{1}); err == nil {
		t.Fatal("send to a dead peer succeeded")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("dead peer took %v to surface", el)
	}
	// The failure is sticky: no second timeout is paid.
	start = time.Now()
	if err := a.Send(1, []float64{1}); err == nil {
		t.Fatal("second send succeeded")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("sticky dial failure re-paid the timeout (%v)", el)
	}
}
