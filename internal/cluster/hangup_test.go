package cluster

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"presto/internal/simtime"
	"presto/internal/wire"
)

// scriptConn plays a coordinator from a script: Recv hands out the
// frames in order, then reports the connection closed. Once the script
// is spent the coordinator has hung up, and Send fails as a write to a
// closed socket does.
type scriptConn struct {
	mu     sync.Mutex
	frames []wire.Frame
}

func (c *scriptConn) Send(wire.Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return io.ErrClosedPipe
	}
	return nil
}

func (c *scriptConn) Recv() (wire.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return wire.Frame{}, io.EOF
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return f, nil
}

func (c *scriptConn) Close() error     { return nil }
func (c *scriptConn) Stats() ConnStats { return ConnStats{} }

// scriptTransport dials its one scripted connection.
type scriptTransport struct{ conn *scriptConn }

func (t scriptTransport) Listen(string) (Listener, error) {
	return nil, errors.New("scripted transport only dials")
}
func (t scriptTransport) Dial(string) (Conn, error) { return t.conn, nil }

// TestSiteEndsCleanlyWhenCoordinatorHangsUp: a joined site whose reply
// cannot be sent because the coordinator closed the connection (an
// advance ack after a SIGTERM mid-advance, a start ack) ends Serve as a
// failed Recv does — nil, or the context's error when cancelled — while
// a frame the site cannot decode still fails Serve.
func TestSiteEndsCleanlyWhenCoordinatorHangsUp(t *testing.T) {
	cfg := testConfig(t, 2, 1, 2)
	assign := wire.Frame{Kind: wire.FrameAssign, Payload: wire.EncodeAssign(wire.Assign{
		Site: 1, Sites: 2, FirstShard: 1, Shards: 1, ConfigHash: configHash(cfg),
	})}
	advance := wire.Frame{Kind: wire.FrameAdvance, Seq: 1, Payload: wire.EncodeAdvance(simtime.Minute)}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name  string
		ctx   context.Context
		frame wire.Frame
		want  func(error) bool
	}{
		{"advance ack", context.Background(), advance, func(err error) bool { return err == nil }},
		{"start ack", context.Background(), wire.Frame{Kind: wire.FrameStart, Seq: 1}, func(err error) bool { return err == nil }},
		{"cancelled", cancelled, advance, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"undecodable advance", context.Background(), wire.Frame{Kind: wire.FrameAdvance, Seq: 1},
			func(err error) bool { return err != nil && !errors.Is(err, io.ErrClosedPipe) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn := &scriptConn{frames: []wire.Frame{assign, c.frame}}
			if err := Serve(c.ctx, scriptTransport{conn}, "coordinator", cfg); !c.want(err) {
				t.Fatalf("Serve returned %v", err)
			}
		})
	}
}
