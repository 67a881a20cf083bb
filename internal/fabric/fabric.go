// Package fabric models the data-center network connecting RDMA NICs: a
// reliable, connected, in-order message transport with a propagation delay,
// line-rate serialization on both the sending and receiving NIC ports, and
// optional jitter. It corresponds to the 56 Gbps RoCE fabric of the paper's
// testbed; parameters are calibrated constants, since the figures depend on
// who waits for whom rather than on absolute wire speed.
package fabric

import (
	"fmt"

	"hyperloop/internal/sim"
)

// NodeID identifies an attached NIC.
type NodeID int

// Message is a unit of delivery between NICs. Payload is carried by
// reference; the simulation charges serialization time for Size bytes.
type Message struct {
	From    NodeID
	To      NodeID
	Size    int // bytes on the wire (payload + header)
	Payload any
}

// Handler receives delivered messages.
type Handler func(Message)

// Config sets the link model. Zero values get defaults approximating the
// paper's testbed (56 Gbps, ~1.5µs one-way delay).
type Config struct {
	PropDelay   sim.Duration // one-way propagation + switching delay (default 1.5µs)
	GbitPerSec  float64      // line rate (default 56)
	JitterFrac  float64      // uniform ± fraction applied to prop delay (default 0.05)
	HeaderBytes int          // per-message framing overhead (default 64)
}

func (c *Config) fill() {
	if c.PropDelay <= 0 {
		c.PropDelay = 1500 * sim.Nanosecond
	}
	if c.GbitPerSec <= 0 {
		c.GbitPerSec = 56
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	} else if c.JitterFrac == 0 {
		c.JitterFrac = 0.05
	}
	if c.HeaderBytes <= 0 {
		c.HeaderBytes = 64
	}
}

// MinLatency returns a hard lower bound on the delivery delay of any message
// under this config: the propagation delay at maximum negative jitter, with
// serialization excluded (it only adds). This is the conservative lookahead
// a sim.PartitionedEngine may safely assume for traffic crossing a link with
// this config — no message can ever arrive sooner.
func (c Config) MinLatency() sim.Duration {
	c.fill()
	min := sim.Duration(float64(c.PropDelay) * (1 - c.JitterFrac))
	if min < sim.Nanosecond {
		min = sim.Nanosecond
	}
	return min
}

// Latency returns the deterministic (jitter-free) one-way delivery delay for
// a message of size payload bytes: propagation plus line-rate serialization
// of payload + framing. Cross-partition gateways use it so hand-off timing
// stays identical at any worker count; by construction it is >= MinLatency.
func (c Config) Latency(size int) sim.Duration {
	c.fill()
	bits := float64(size+c.HeaderBytes) * 8
	return c.PropDelay + sim.Duration(bits/c.GbitPerSec)
}

type port struct {
	net      *Network
	handler  Handler
	txFree   sim.Time // when the egress port finishes its current frame
	rxFree   sim.Time // when the ingress port finishes its current frame
	txBytes  uint64
	rxBytes  uint64
	messages uint64
	// inflight holds the messages scheduled for delivery at this port, in
	// delivery order: each message's ingress end (rxEnd) is at or after the
	// previous one's, and the engine fires same-instant events in schedule
	// order, so the delivery events for a port fire in push order and each
	// one pops the head.
	inflight msgRing
}

// msgRing is a FIFO of messages on a power-of-two ring. It grows only when
// full, so its size tracks the most messages ever in flight to one port,
// not the run length.
type msgRing struct {
	buf  []Message
	head int
	n    int
}

func (r *msgRing) push(m Message) {
	if r.n == len(r.buf) {
		grown := make([]Message, max(2*len(r.buf), 8))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
}

func (r *msgRing) pop() Message {
	m := r.buf[r.head]
	r.buf[r.head] = Message{} // drop the payload reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return m
}

// Network is the shared fabric. Attach NICs, then Send between them.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	r     *sim.Rand
	ports []*port

	// Partitions: pairs that currently cannot communicate (for failure
	// testing). Keyed by directed pair.
	cut map[[2]NodeID]bool

	delivered uint64
	dropped   uint64
}

// New creates a network on the given engine. r may be nil for a default
// seed.
func New(eng *sim.Engine, cfg Config, r *sim.Rand) *Network {
	cfg.fill()
	if r == nil {
		r = sim.NewRand(1)
	}
	return &Network{eng: eng, cfg: cfg, r: r, cut: make(map[[2]NodeID]bool)}
}

// Attach registers a NIC and returns its NodeID. The handler runs at
// delivery time on the simulation goroutine.
func (n *Network) Attach(handler Handler) NodeID {
	if handler == nil {
		panic("fabric: nil handler")
	}
	n.ports = append(n.ports, &port{net: n, handler: handler})
	return NodeID(len(n.ports) - 1)
}

// Nodes returns the number of attached NICs.
func (n *Network) Nodes() int { return len(n.ports) }

// serialization returns the time to push size bytes through the line.
func (n *Network) serialization(size int) sim.Duration {
	bits := float64(size+n.cfg.HeaderBytes) * 8
	return sim.Duration(bits / n.cfg.GbitPerSec) // Gbit/s == bits/ns
}

// Send schedules delivery of msg. Delivery time accounts for egress-port
// serialization (a busy sender queues), propagation with jitter, and
// ingress-port serialization. Messages between a given pair arrive in the
// order sent (reliable connected semantics).
func (n *Network) Send(msg Message) {
	if int(msg.From) >= len(n.ports) || int(msg.To) >= len(n.ports) || msg.From < 0 || msg.To < 0 {
		panic(fmt.Sprintf("fabric: send %d -> %d with %d nodes", msg.From, msg.To, len(n.ports)))
	}
	if n.cut[[2]NodeID{msg.From, msg.To}] {
		n.dropped++
		return
	}
	src, dst := n.ports[msg.From], n.ports[msg.To]
	ser := n.serialization(msg.Size)

	txStart := n.eng.Now()
	if src.txFree > txStart {
		txStart = src.txFree
	}
	txEnd := txStart.Add(ser)
	src.txFree = txEnd
	src.txBytes += uint64(msg.Size)

	prop := n.r.Jitter(n.cfg.PropDelay, n.cfg.JitterFrac)
	rxStart := txEnd.Add(prop)
	if dst.rxFree > rxStart {
		rxStart = dst.rxFree
	}
	rxEnd := rxStart.Add(ser)
	dst.rxFree = rxEnd
	dst.rxBytes += uint64(msg.Size)
	dst.messages++

	dst.inflight.push(msg)
	n.eng.ScheduleCallAt(rxEnd, deliverHead, dst)
}

// deliverHead is the delivery event of a port: it pops the port's oldest
// in-flight message and hands it over, unless its link was cut meanwhile.
func deliverHead(p any) {
	dst := p.(*port)
	msg := dst.inflight.pop()
	n := dst.net
	if n.cut[[2]NodeID{msg.From, msg.To}] {
		n.dropped++
		return
	}
	n.delivered++
	dst.handler(msg)
}

// Cut severs the directed link a→b; in-flight messages are dropped at
// delivery time. Used by failure-injection tests.
func (n *Network) Cut(a, b NodeID) { n.cut[[2]NodeID{a, b}] = true }

// CutBoth severs both directions between a and b.
func (n *Network) CutBoth(a, b NodeID) {
	n.Cut(a, b)
	n.Cut(b, a)
}

// Heal restores the directed link a→b.
func (n *Network) Heal(a, b NodeID) { delete(n.cut, [2]NodeID{a, b}) }

// Isolate severs every link to and from id — the whole-node partition a
// switch-port failure or machine crash produces, as opposed to the
// single-link Cut. In-flight messages involving id are dropped at delivery
// time like any cut link.
func (n *Network) Isolate(id NodeID) {
	for other := NodeID(0); int(other) < len(n.ports); other++ {
		if other != id {
			n.CutBoth(id, other)
		}
	}
}

// Rejoin removes every cut involving id, undoing Isolate (and any directed
// Cut that touches id).
func (n *Network) Rejoin(id NodeID) {
	for pair := range n.cut {
		if pair[0] == id || pair[1] == id {
			delete(n.cut, pair)
		}
	}
}

// HealBoth restores both directions.
func (n *Network) HealBoth(a, b NodeID) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// Delivered returns the number of messages delivered.
func (n *Network) Delivered() uint64 { return n.delivered }

// Dropped returns the number of messages dropped by cut links.
func (n *Network) Dropped() uint64 { return n.dropped }

// BytesSent returns the egress byte count of a node.
func (n *Network) BytesSent(id NodeID) uint64 { return n.ports[id].txBytes }

// BytesReceived returns the ingress byte count of a node.
func (n *Network) BytesReceived(id NodeID) uint64 { return n.ports[id].rxBytes }
