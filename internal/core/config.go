// Package core implements the paper's contribution: the tiled high-radix
// switch microarchitecture (Section II) and its stashing extension
// (Section III). A Switch models, cycle by cycle: per-port DAMQ input
// buffers, multi-drop row buses, an R×C array of tile crossbars with
// virtual-output-queued row buffers and separable output-first allocation,
// column channels into per-output multiplexers, and output buffers that
// retain transmitted flits for one link round-trip (link-level
// retransmission). The stashing extension adds the storage (S) and
// retrieval (R) internal virtual channels, per-port stash partitions
// managed as pools, two-stage join-shortest-queue stash path selection,
// row-bus broadcast duplication for free packet copies, a side-band
// bookkeeping network, and the end-to-end reliability and congestion
// mitigation engines of Section IV.
package core

import (
	"fmt"

	"stashsim/internal/buffer"
	"stashsim/internal/fault"
	"stashsim/internal/proto"
	"stashsim/internal/route"
	"stashsim/internal/topo"
)

// MaxStashParity bounds Config.StashParity; it mirrors the buffer layer's
// fixed parity-group slab width.
const MaxStashParity = buffer.MaxParityWidth

// StashMode selects which use case (if any) drives the stash buffers.
type StashMode uint8

const (
	// StashOff is the baseline tiled switch.
	StashOff StashMode = iota
	// StashE2E duplicates every data packet injected at an end port into
	// a stash buffer until the destination's ACK returns (Section IV-A).
	StashE2E
	// StashCongestion absorbs HoL-blocked packets at congested inputs
	// while ECN throttles the sources (Section IV-B).
	StashCongestion
)

// String returns the mode name.
func (m StashMode) String() string {
	switch m {
	case StashOff:
		return "baseline"
	case StashE2E:
		return "e2e"
	case StashCongestion:
		return "congestion"
	}
	return fmt.Sprintf("StashMode(%d)", uint8(m))
}

// ECNParams configures explicit congestion notification (Section IV-B).
type ECNParams struct {
	// Enabled turns on congestion detection and packet marking in the
	// switches and window management at the endpoints.
	Enabled bool
	// CongestFrac is the input-buffer occupancy fraction above which a
	// port enters the congested state (0.5 in the paper).
	CongestFrac float64
	// WindowMax is the initial/maximum per-destination transmission
	// window in flits (4096).
	WindowMax int
	// WindowFloor is the minimum window in flits (one max packet).
	WindowFloor int
	// DecreaseNum/DecreaseDen scale the window on every marked ACK
	// (4/5 = the paper's 80%).
	DecreaseNum, DecreaseDen int
	// RecoverPeriod is the number of cycles per one-flit window
	// recovery increment (30).
	RecoverPeriod int64
}

// DefaultECN returns the paper's ECN parameters.
func DefaultECN() ECNParams {
	return ECNParams{
		Enabled:       true,
		CongestFrac:   0.5,
		WindowMax:     4096,
		WindowFloor:   proto.MaxPacketFlits,
		DecreaseNum:   4,
		DecreaseDen:   5,
		RecoverPeriod: 30,
	}
}

// RetransParams configures the timeout-driven retransmission ladder that
// makes injected loss survivable: the first-hop switch resends its stash
// copy after an ACK timeout (bounded retries, exponential backoff), and
// the source endpoint retransmits as graceful degradation when no stash
// copy covers the packet (stash full at injection, bank failed, or a
// non-stashing mode). The zero value disables both timers, preserving
// the pre-fault behavior exactly.
type RetransParams struct {
	// Enabled arms the switch-side and endpoint-side ACK timers.
	Enabled bool
	// SwitchTimeout is the base ACK timeout in cycles for the first-hop
	// stash resend timer; each retry doubles it (exponential backoff).
	SwitchTimeout int64
	// SwitchRetries bounds stash resends; after exhaustion the switch
	// abandons the copy and leaves recovery to the source endpoint.
	SwitchRetries int
	// EndpointTimeout is the base ACK timeout in cycles for source
	// retransmission. It should comfortably exceed the switch timer's
	// full backoff ladder so local recovery wins when possible.
	EndpointTimeout int64
	// EndpointRetries bounds source retransmissions per packet.
	EndpointRetries int
	// ScanEvery is the timer scan interval in cycles; timers fire on the
	// first scan at or after their deadline.
	ScanEvery int64
}

// NextScan returns the first cycle after now on which the armed timers
// are scanned (every cycle that is a multiple of ScanEvery).
//
//stashsim:noalloc
func (rp *RetransParams) NextScan(now int64) int64 {
	if rp.ScanEvery <= 1 {
		return now + 1
	}
	return now + rp.ScanEvery - now%rp.ScanEvery
}

// DefaultRetrans returns enabled timers with defaults sized for the
// simulated latencies: the switch timer covers several network RTTs, and
// the endpoint timer exceeds the switch timer's full backoff ladder.
func DefaultRetrans() RetransParams {
	return RetransParams{
		Enabled:         true,
		SwitchTimeout:   8192,
		SwitchRetries:   5,
		EndpointTimeout: 65536,
		EndpointRetries: 5,
		ScanEvery:       64,
	}
}

// Config describes one network build: topology, switch microarchitecture,
// stashing mode, and protocol parameters. It is shared read-only by every
// switch and endpoint.
type Config struct {
	Topo topo.Dragonfly
	Lat  topo.Latencies

	// Tiling. Rows*TileIn and Cols*TileOut must cover the radix; excess
	// tile inputs/outputs are left unconnected (padding for radixes that
	// do not factor evenly).
	Rows, Cols, TileIn, TileOut int

	// Port memory in flits: each port has InputBufFlits of input buffer
	// and OutputBufFlits of output buffer (1000 + 1000 = 2×10 KB at
	// 10 B/flit in the paper).
	InputBufFlits, OutputBufFlits int
	// RowBufFlits / ColBufFlits are per-VC row and column buffer sizes
	// (4 packets = 96 flits).
	RowBufFlits, ColBufFlits int

	// RateNum/RateDen is the channel (and endpoint injection) rate in
	// flits per internal cycle: 10/13 models the paper's 1.3× internal
	// speedup. Setting 1/1 models no speedup (ablation).
	RateNum, RateDen int

	Mode StashMode
	// StashCapFrac artificially restricts the usable stash capacity
	// (1.0, 0.5, 0.25 in the paper's sensitivity study).
	StashCapFrac float64
	// StashFracEndpoint/StashFracLocal are the fractions of port memory
	// partitioned for stashing on endpoint and local ports (7/8, 3/4).
	// Global ports never stash.
	StashFracEndpoint, StashFracLocal float64

	ECN   ECNParams
	Route route.Params

	// SidebandLat is the latency in cycles of the dedicated side-band
	// bookkeeping network between ports of one switch.
	SidebandLat int64

	// BankModel enables the two-bank interleaved port memory admission
	// gate; false models ideal multiported memory.
	BankModel bool

	// RandomStashPlacement replaces the two-stage join-shortest-queue
	// stash path selection with a uniformly random choice among feasible
	// paths (ablation of Section III-A's JSQ policy).
	RandomStashPlacement bool

	// RetainPayload keeps stash-copy payloads for the retransmission
	// extension (required when error injection is enabled).
	RetainPayload bool

	// AcksEnabled makes destinations acknowledge every data packet.
	AcksEnabled bool

	// ErrorRate is the per-packet probability that a destination
	// endpoint NACKs a data packet (error-injection extension).
	ErrorRate float64

	// Retrans configures the timeout-driven recovery ladder.
	Retrans RetransParams

	// Fault, when non-nil and active, is the deterministic fault plan the
	// network wiring materializes onto links and stash banks.
	Fault *fault.Plan

	// StashBypass lets a StashE2E end port forward a packet without a
	// stash copy when join-shortest-queue finds no storage path, instead
	// of stalling until space frees. Bypassed packets are covered by the
	// source endpoint's retransmission timer only, so it requires
	// Retrans.Enabled.
	StashBypass bool

	// StashParity, when positive, stripes completed end-to-end stash
	// copies into parity groups of this width k with one XOR parity flit
	// run per group, stored in a bank outside the member set. A single
	// lost member (bank failure, busy-bank read) is then reconstructed
	// from the k-1 survivors + parity instead of degrading to endpoint
	// retransmission. 0 (the default) disables erasure coding entirely.
	// Requires StashE2E and at least k+1 stash-capable banks.
	StashParity int

	Seed uint64
}

// FaultActive reports whether an attached fault plan injects anything.
//
//stashsim:noalloc
func (c *Config) FaultActive() bool { return c.Fault.Active() }

// VerifyChecksums reports whether destination endpoints must verify flit
// checksums on ejection (the fault plan can corrupt payloads).
func (c *Config) VerifyChecksums() bool {
	return c.Fault != nil && c.Fault.CorruptRate > 0
}

// DedupDelivery reports whether destination endpoints must suppress
// duplicate packet deliveries by PktID: any configuration that can
// retransmit on a timer may race an original with its retransmit.
func (c *Config) DedupDelivery() bool {
	return c.Retrans.Enabled || c.FaultActive()
}

// Validate checks structural consistency.
func (c *Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	radix := c.Topo.Radix()
	if radix > 64 || c.Rows*c.Cols > 64 {
		return fmt.Errorf("core: radix %d on %d x %d tiles exceeds the switch's 64-port / 64-tile active-set masks", radix, c.Rows, c.Cols)
	}
	if groups := c.Topo.Groups(); c.Route.Adaptive && groups < 3 {
		return fmt.Errorf("core: adaptive routing diverts through a third group, %+v has %d", c.Topo, groups)
	}
	if c.Rows*c.TileIn < radix {
		return fmt.Errorf("core: %d tile rows x %d inputs cannot cover radix %d", c.Rows, c.TileIn, radix)
	}
	if c.Cols*c.TileOut < radix {
		return fmt.Errorf("core: %d tile cols x %d outputs cannot cover radix %d", c.Cols, c.TileOut, radix)
	}
	if c.RateNum <= 0 || c.RateDen <= 0 || c.RateNum > c.RateDen {
		return fmt.Errorf("core: invalid channel rate %d/%d", c.RateNum, c.RateDen)
	}
	if c.Mode != StashOff && !(c.StashCapFrac > 0 && c.StashCapFrac <= 1) {
		return fmt.Errorf("core: stashing enabled with capacity fraction %v, want one in (0, 1]", c.StashCapFrac)
	}
	if c.Mode == StashE2E && !c.AcksEnabled {
		return fmt.Errorf("core: end-to-end reliability requires ACKs")
	}
	if !(c.ErrorRate >= 0 && c.ErrorRate <= 1) {
		return fmt.Errorf("core: error rate %v is not a probability", c.ErrorRate)
	}
	if c.ErrorRate > 0 && !c.RetainPayload {
		return fmt.Errorf("core: error injection requires RetainPayload for retransmission")
	}
	if c.Retrans.Enabled {
		if !c.AcksEnabled {
			return fmt.Errorf("core: retransmission timers require ACKs (nothing would ever settle)")
		}
		if c.Retrans.SwitchTimeout <= 0 || c.Retrans.EndpointTimeout <= 0 {
			return fmt.Errorf("core: retransmission timers require positive timeouts")
		}
		if c.Retrans.ScanEvery <= 0 {
			return fmt.Errorf("core: retransmission timers require a positive scan interval")
		}
		if c.Mode == StashE2E && !c.RetainPayload {
			return fmt.Errorf("core: stash resend timers require RetainPayload")
		}
	}
	if c.StashBypass && !c.Retrans.Enabled {
		return fmt.Errorf("core: stash bypass forwards uncovered packets and requires retransmission timers")
	}
	if c.StashParity != 0 {
		if c.StashParity < 2 || c.StashParity > MaxStashParity {
			return fmt.Errorf("core: stash parity width %d outside [2, %d]", c.StashParity, MaxStashParity)
		}
		if c.Mode != StashE2E {
			return fmt.Errorf("core: stash parity groups require end-to-end stashing mode")
		}
		// Members occupy k distinct banks and the parity flit run a
		// further one; only endpoint and local ports contribute stash
		// capacity.
		banks := c.Topo.P + c.Topo.A - 1
		if banks < c.StashParity+1 {
			return fmt.Errorf("core: stash parity width %d needs %d stash-capable banks, topology has %d",
				c.StashParity, c.StashParity+1, banks)
		}
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if c.FaultActive() && !c.Retrans.Enabled && c.Mode == StashE2E {
		// Without timers, an in-flight drop of a tracked packet would
		// leave its stash entry resident forever and eventually wedge the
		// pool. Corruption-only plans are fine: the NACK path recovers.
		if c.Fault.LinkDropRate > 0 || len(c.Fault.Outages) > 0 {
			return fmt.Errorf("core: fault plans that drop packets require Retrans.Enabled in e2e mode")
		}
	}
	return nil
}

// stashFrac returns the fraction of a port's memory partitioned for
// stashing, before the capacity restriction.
func (c *Config) stashFrac(class topo.LinkClass) float64 {
	if c.Mode == StashOff {
		return 0
	}
	switch class {
	case topo.Endpoint:
		return c.StashFracEndpoint
	case topo.Local:
		return c.StashFracLocal
	default:
		return 0
	}
}

// NormalInCap returns the normal (non-stash) input-buffer capacity in
// flits for a port of the given class.
func (c *Config) NormalInCap(class topo.LinkClass) int {
	return c.InputBufFlits - int(float64(c.InputBufFlits)*c.stashFrac(class))
}

// NormalOutCap returns the normal output-buffer capacity in flits.
func (c *Config) NormalOutCap(class topo.LinkClass) int {
	return c.OutputBufFlits - int(float64(c.OutputBufFlits)*c.stashFrac(class))
}

// StashCap returns the usable stash-pool capacity in flits for a port of
// the given class, after the capacity restriction.
func (c *Config) StashCap(class topo.LinkClass) int {
	part := float64(c.InputBufFlits+c.OutputBufFlits) * c.stashFrac(class)
	return int(part * c.StashCapFrac)
}

// SwitchStashCap returns the total usable stash capacity of one switch.
func (c *Config) SwitchStashCap() int {
	d := c.Topo
	return d.P*c.StashCap(topo.Endpoint) + (d.A-1)*c.StashCap(topo.Local) + d.H*c.StashCap(topo.Global)
}

// RowOf returns the tile row serving an input port.
//
//stashsim:noalloc
func (c *Config) RowOf(in int) int { return in / c.TileIn }

// SlotOf returns the tile-input slot of an input port within its row.
//
//stashsim:noalloc
func (c *Config) SlotOf(in int) int { return in % c.TileIn }

// ColOf returns the tile column serving an output port.
//
//stashsim:noalloc
func (c *Config) ColOf(out int) int { return out / c.TileOut }

// TileOutOf returns the tile-output index of an output port within its
// column.
//
//stashsim:noalloc
func (c *Config) TileOutOf(out int) int { return out % c.TileOut }

// PresetConfig returns the base configuration a CLI's -preset names:
// "tiny", "small" (also the empty name) or "paper".
func PresetConfig(name string) (*Config, error) {
	switch name {
	case "paper":
		return PaperConfig(), nil
	case "tiny":
		return TinyConfig(), nil
	case "", "small":
		return SmallConfig(), nil
	}
	return nil, fmt.Errorf("unknown preset %q (want tiny, small, or paper)", name)
}

// PaperConfig returns the full-scale configuration of Section V: a
// 3080-node dragonfly of 20-port switches with 4×4 tiles of 5×5 crossbars.
func PaperConfig() *Config {
	return &Config{
		Topo:              topo.Dragonfly{P: 5, A: 11, H: 5},
		Lat:               topo.PaperLatencies(),
		Rows:              4,
		Cols:              4,
		TileIn:            5,
		TileOut:           5,
		InputBufFlits:     1000,
		OutputBufFlits:    1000,
		RowBufFlits:       4 * proto.MaxPacketFlits,
		ColBufFlits:       4 * proto.MaxPacketFlits,
		RateNum:           10,
		RateDen:           13,
		Mode:              StashOff,
		StashCapFrac:      1.0,
		StashFracEndpoint: 7.0 / 8.0,
		StashFracLocal:    3.0 / 4.0,
		ECN:               ECNParams{Enabled: false},
		Route:             route.DefaultParams(),
		SidebandLat:       13,
		AcksEnabled:       true,
		Seed:              1,
	}
}

// SmallConfig returns a scaled-down canonical dragonfly (342 nodes,
// radix-11 switches, 3×3 tiles) with the same per-port resources, latency
// structure and protocol parameters. Experiments on this preset preserve
// the paper's qualitative shapes at ~1/10 the simulation cost.
func SmallConfig() *Config {
	c := PaperConfig()
	c.Topo = topo.Dragonfly{P: 3, A: 6, H: 3}
	// Keep the paper's 4x4 tile array (radix 11 padded into 4x3 tiles)
	// so the internal-bandwidth overprovisioning ratio R and the number
	// of stash columns match the paper's switch.
	c.Rows, c.Cols, c.TileIn, c.TileOut = 4, 4, 3, 3
	return c
}

// TinyConfig returns a 72-node dragonfly for unit and integration tests,
// with shortened links so its small buffers still cover the link RTTs.
func TinyConfig() *Config {
	c := PaperConfig()
	c.Topo = topo.Dragonfly{P: 2, A: 4, H: 2}
	// 4x4 tile array (radix 7 padded into 4x2 tiles): same R and column
	// count as the paper's switch.
	c.Rows, c.Cols, c.TileIn, c.TileOut = 4, 4, 2, 2
	c.InputBufFlits = 256
	c.OutputBufFlits = 256
	c.Lat = topo.Latencies{Endpoint: 7, Local: 13, Global: 65}
	return c
}
