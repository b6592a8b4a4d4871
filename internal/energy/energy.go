// Package energy provides per-component energy accounting for simulated
// sensor nodes, plus a parameter set calibrated to Mica2-class mote
// hardware (the paper's 2005-era platform).
//
// PRESTO's central argument is a technology-trend one: radio communication
// costs orders of magnitude more energy than computation or flash storage,
// so communication should be traded for computation (model checking) and
// storage (local archival). The constants in DefaultParams encode that
// hierarchy explicitly; every experiment's energy totals flow through a
// Meter so results can be broken down by component.
package energy

import (
	"fmt"
	"strings"
	"time"
)

// Category identifies a hardware component drawing energy.
type Category int

// Energy categories. RadioListen covers low-power-listening channel checks
// (idle listening); RadioTx/RadioRx cover actual frame transfer including
// preambles and ACKs.
const (
	RadioTx Category = iota
	RadioRx
	RadioListen
	CPU
	FlashRead
	FlashWrite
	FlashErase
	Sensing
	numCategories
)

// NumCategories is the number of distinct energy categories.
const NumCategories = int(numCategories)

var categoryNames = [...]string{
	RadioTx:     "radio-tx",
	RadioRx:     "radio-rx",
	RadioListen: "radio-listen",
	CPU:         "cpu",
	FlashRead:   "flash-read",
	FlashWrite:  "flash-write",
	FlashErase:  "flash-erase",
	Sensing:     "sensing",
}

// String returns the category's short name.
func (c Category) String() string {
	if c < 0 || int(c) >= NumCategories {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// Meter accumulates Joules per category. The zero value is ready to use.
// Meter is not safe for concurrent use: the simulation core is
// single-threaded by design (see internal/simtime).
type Meter struct {
	joules [numCategories]float64
	events [numCategories]uint64
}

// Add charges j Joules to category c. Negative charges panic: energy only
// flows out of a mote's battery.
func (m *Meter) Add(c Category, j float64) {
	if j < 0 {
		panic(fmt.Sprintf("energy: negative charge %g J to %v", j, c))
	}
	if c < 0 || int(c) >= NumCategories {
		panic(fmt.Sprintf("energy: invalid category %d", int(c)))
	}
	m.joules[c] += j
	m.events[c]++
}

// Total returns the total Joules across all categories.
func (m *Meter) Total() float64 {
	var sum float64
	for _, j := range m.joules {
		sum += j
	}
	return sum
}

// Radio returns the Joules spent on all radio activity (tx+rx+listen).
func (m *Meter) Radio() float64 {
	return m.joules[RadioTx] + m.joules[RadioRx] + m.joules[RadioListen]
}

// Get returns the Joules charged to a single category.
func (m *Meter) Get(c Category) float64 { return m.joules[c] }

// Events returns how many charges were recorded for a category.
func (m *Meter) Events(c Category) uint64 { return m.events[c] }

// Reset zeroes the meter.
func (m *Meter) Reset() { *m = Meter{} }

// AddFrom accumulates another meter's totals into m (used to aggregate
// per-mote meters into a deployment total).
func (m *Meter) AddFrom(o *Meter) {
	for i := range m.joules {
		m.joules[i] += o.joules[i]
		m.events[i] += o.events[i]
	}
}

// String renders a compact per-category breakdown, omitting zero rows.
func (m *Meter) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.3f J total", m.Total())
	for c := Category(0); int(c) < NumCategories; c++ {
		if m.joules[c] > 0 {
			fmt.Fprintf(&b, ", %s=%.3f", c, m.joules[c])
		}
	}
	return b.String()
}

// Params holds the energy cost model for a mote. All per-byte and per-cycle
// values are in Joules.
type Params struct {
	// Radio costs. A Mica2-class CC1000 radio (the paper's 2005-era
	// hardware) moves ~2.4 kB/s at ~48 mW TX / ~29 mW RX: roughly 20 uJ
	// to transmit and 12 uJ to receive one byte. These constants keep the
	// published cost hierarchy radio >> flash >> cpu per byte/op.
	TxJPerByte float64 // energy to transmit one payload/header byte
	RxJPerByte float64 // energy to receive one byte

	// Low-power listening (B-MAC style). The sender prepends a preamble
	// long enough to cover the receiver's channel-check interval, so
	// per-packet preamble cost grows linearly with the receiver's LPL
	// interval; the receiver pays a short channel probe every interval.
	PreambleJPerSecond float64 // TX cost of preamble per second of preamble
	ListenJPerCheck    float64 // RX cost of one LPL channel probe
	// TurnaroundJPerFrame is the fixed sender-side cost of waking the
	// radio and switching to TX for one frame (plus the minimum preamble
	// even toward always-on receivers). This is the per-packet overhead
	// that batching amortizes in Figure 2.
	TurnaroundJPerFrame float64

	HeaderBytes int // MAC+PHY header per frame
	AckBytes    int // link-layer ACK frame size
	MaxPayload  int // maximum payload bytes per frame (fragmentation unit)

	// CPU: MSP430-class microcontroller, ~4 MHz at ~3 mW active: ~0.75
	// nJ/cycle; we use 1 nJ/cycle.
	CPUJPerCycle float64

	// Flash: NAND-class part, ~1 uJ/byte program, ~0.25 uJ/byte read,
	// block erase in the tens of uJ.
	FlashWriteJPerByte  float64
	FlashReadJPerByte   float64
	FlashEraseJPerBlock float64

	// Sensing: one ADC acquisition.
	SenseJPerSample float64
}

// DefaultParams returns the Mica2-class cost model used throughout the
// experiments. The absolute numbers are representative, not measured; the
// experiments only rely on their ratios (radio >> flash >> cpu).
func DefaultParams() Params {
	return Params{
		TxJPerByte:          20e-6,
		RxJPerByte:          12e-6,
		PreambleJPerSecond:  60e-3,  // ~60 mW radio during preamble
		ListenJPerCheck:     150e-6, // ~2.5ms probe at 60 mW
		TurnaroundJPerFrame: 120e-6, // ~2 ms wakeup+turnaround at 60 mW
		HeaderBytes:         16,
		AckBytes:            11,
		MaxPayload:          96,
		CPUJPerCycle:        1.0e-9,
		FlashWriteJPerByte:  1.0e-6,
		FlashReadJPerByte:   0.25e-6,
		FlashEraseJPerBlock: 100e-6,
		SenseJPerSample:     3.0e-6,
	}
}

// Validate reports an error when a parameter set is unusable (non-positive
// core costs or frame geometry).
func (p Params) Validate() error {
	switch {
	case p.TxJPerByte <= 0 || p.RxJPerByte <= 0:
		return fmt.Errorf("energy: per-byte radio costs must be positive (tx=%g rx=%g)", p.TxJPerByte, p.RxJPerByte)
	case p.MaxPayload <= 0:
		return fmt.Errorf("energy: MaxPayload must be positive, got %d", p.MaxPayload)
	case p.HeaderBytes < 0 || p.AckBytes < 0:
		return fmt.Errorf("energy: negative frame geometry (header=%d ack=%d)", p.HeaderBytes, p.AckBytes)
	case p.PreambleJPerSecond < 0 || p.ListenJPerCheck < 0:
		return fmt.Errorf("energy: negative LPL costs")
	case p.CPUJPerCycle < 0 || p.FlashWriteJPerByte < 0 || p.FlashReadJPerByte < 0 || p.FlashEraseJPerBlock < 0:
		return fmt.Errorf("energy: negative cpu/flash costs")
	case p.SenseJPerSample < 0:
		return fmt.Errorf("energy: negative sensing cost")
	}
	return nil
}

// Frames returns how many link frames are needed for a payload of n bytes.
// Zero-byte payloads still require one frame (e.g. a beacon).
func (p Params) Frames(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + p.MaxPayload - 1) / p.MaxPayload
}

// TxCost returns the sender-side energy for a payload of n bytes sent as
// one message whose B-MAC wakeup preamble must cover a receiver check
// interval of lpl. The long preamble is paid once per message — after the
// first frame the receiver stays awake, so subsequent fragments pay only
// the per-frame turnaround — plus header bytes and ACK reception per
// frame. This is the per-packet overhead that batching amortizes in
// Figure 2.
func (p Params) TxCost(n int, lpl time.Duration) float64 {
	frames := p.Frames(n)
	preamble := p.PreambleJPerSecond * lpl.Seconds()
	turnaround := p.TurnaroundJPerFrame * float64(frames)
	bytes := float64(n + frames*p.HeaderBytes)
	ack := float64(frames*p.AckBytes) * p.RxJPerByte
	return preamble + turnaround + bytes*p.TxJPerByte + ack
}

// RxCost returns the receiver-side energy for a payload of n bytes,
// including header reception and ACK transmission.
func (p Params) RxCost(n int) float64 {
	frames := p.Frames(n)
	bytes := float64(n + frames*p.HeaderBytes)
	ack := float64(frames*p.AckBytes) * p.TxJPerByte
	return bytes*p.RxJPerByte + ack
}

// ListenCost returns the idle-listening energy for a node that probes the
// channel every lpl over an elapsed period. A zero or negative interval
// means the radio is always on; we charge continuous listen power
// (approximated as preamble power).
func (p Params) ListenCost(elapsed, lpl time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	if lpl <= 0 {
		return p.PreambleJPerSecond * elapsed.Seconds()
	}
	checks := float64(elapsed) / float64(lpl)
	return checks * p.ListenJPerCheck
}

// Lifetime estimates how long a battery of capacity J lasts at the average
// power implied by spending spent Joules over elapsed time.
func Lifetime(batteryJ float64, spent float64, elapsed time.Duration) time.Duration {
	if spent <= 0 || elapsed <= 0 {
		return time.Duration(1<<63 - 1) // effectively forever
	}
	avgW := spent / elapsed.Seconds()
	sec := batteryJ / avgW
	return time.Duration(sec * float64(time.Second))
}

// AABatteryJ is the usable energy of a pair of AA cells (~2×1.5V×2600mAh,
// derated): roughly 20 kJ.
const AABatteryJ = 20000.0
