package endpoint

import (
	"stashsim/internal/proto"
	"stashsim/internal/stats"
)

// Collector aggregates measurements from one or more endpoints. A
// collector is single-writer: under the parallel executor the network
// gives every endpoint its own shard (see CollectorSet) and merges them in
// fixed shard order at read time, so no synchronization is needed on the
// recording path. Measurement can be gated (warmup) and reset between
// phases.
type Collector struct {
	// Enabled gates all recording (false during warmup).
	Enabled bool

	// LatAcc accumulates packet latency per traffic class.
	LatAcc [proto.NumClasses]stats.Acc
	// LatHist, when non-nil for a class, records the full latency
	// distribution (allocate only for the classes a figure needs).
	LatHist [proto.NumClasses]*stats.Hist
	// Series, when non-nil for a class, records latency over time.
	Series [proto.NumClasses]*stats.TimeSeries

	OfferedFlits   [proto.NumClasses]int64
	DeliveredFlits [proto.NumClasses]int64
	DeliveredPkts  [proto.NumClasses]int64

	Acks          int64
	Errors        int64
	WindowShrinks int64

	// Fault-recovery accounting. DuplicatesSuppressed counts data packets
	// discarded at destinations because a copy already delivered (original
	// racing its retransmit); CorruptPkts counts checksum failures NACKed;
	// EndpointRetransmits and RetransAbandons count source-timer resends
	// and give-ups; RecoveredPkts counts deliveries of retransmitted
	// packets, whose end-to-end recovery latency feeds RecoveryAcc (and
	// RecoveryHist when allocated).
	DuplicatesSuppressed int64
	CorruptPkts          int64
	EndpointRetransmits  int64
	RetransAbandons      int64
	RecoveredPkts        int64
	RecoveryAcc          stats.Acc
	RecoveryHist         *stats.Hist
}

// NewCollector returns an enabled collector with no optional sinks.
func NewCollector() *Collector { return &Collector{Enabled: true} }

// WithHist allocates a latency histogram for the given class.
func (c *Collector) WithHist(class proto.Class) *Collector {
	c.LatHist[class] = &stats.Hist{}
	return c
}

// WithSeries allocates a latency time series for the given class.
func (c *Collector) WithSeries(class proto.Class, binWidth int64) *Collector {
	c.Series[class] = stats.NewTimeSeries(binWidth)
	return c
}

// WithRecoveryHist allocates the recovery-latency histogram.
func (c *Collector) WithRecoveryHist() *Collector {
	c.RecoveryHist = &stats.Hist{}
	return c
}

// Offered records generated load.
func (c *Collector) Offered(class proto.Class, flits int64) {
	if !c.Enabled {
		return
	}
	c.OfferedFlits[class] += flits
}

// Packet records one delivered data packet.
func (c *Collector) Packet(now int64, class proto.Class, latency, flits int64) {
	if !c.Enabled {
		return
	}
	c.LatAcc[class].Add(float64(latency))
	c.DeliveredFlits[class] += flits
	c.DeliveredPkts[class]++
	if h := c.LatHist[class]; h != nil {
		h.Add(latency)
	}
	if s := c.Series[class]; s != nil {
		s.Add(now, float64(latency))
	}
}

// Ack records one received end-to-end ACK.
func (c *Collector) Ack() { c.count(&c.Acks) }

// Error records one injected delivery error (NACKed packet).
func (c *Collector) Error() { c.count(&c.Errors) }

// WindowShrink records one ECN-driven window decrease.
func (c *Collector) WindowShrink() { c.count(&c.WindowShrinks) }

// Duplicate records one suppressed duplicate delivery.
func (c *Collector) Duplicate() { c.count(&c.DuplicatesSuppressed) }

// Corrupt records one checksum failure detected at a destination.
func (c *Collector) Corrupt() { c.count(&c.CorruptPkts) }

// Retransmit records one source-timer retransmission.
func (c *Collector) Retransmit() { c.count(&c.EndpointRetransmits) }

// RetransAbandon records one packet given up after retry exhaustion.
func (c *Collector) RetransAbandon() { c.count(&c.RetransAbandons) }

// count adds one to a scalar count while recording is enabled.
func (c *Collector) count(n *int64) {
	if c.Enabled {
		*n++
	}
}

// Recovered records the delivery of a retransmitted packet and its
// end-to-end recovery latency (delivery cycle minus original birth).
func (c *Collector) Recovered(latency int64) {
	if !c.Enabled {
		return
	}
	c.RecoveredPkts++
	c.RecoveryAcc.Add(float64(latency))
	if c.RecoveryHist != nil {
		c.RecoveryHist.Add(latency)
	}
}

// Reset clears all measurements: c becomes a fresh collector with the same
// gate and the same optional sinks, empty.
func (c *Collector) Reset() {
	fresh := Collector{Enabled: c.Enabled}
	for i := range c.LatHist {
		if c.LatHist[i] != nil {
			fresh.LatHist[i] = &stats.Hist{}
		}
		if c.Series[i] != nil {
			fresh.Series[i] = stats.NewTimeSeries(c.Series[i].BinWidth)
		}
	}
	if c.RecoveryHist != nil {
		fresh.RecoveryHist = &stats.Hist{}
	}
	*c = fresh
}

// Merge folds another collector into c: accumulators, histograms, time
// series and scalar counts all combine as if o's observations had been
// recorded on c. Optional sinks present on o are allocated on c as needed.
// Configuration (Enabled) is not touched.
func (c *Collector) Merge(o *Collector) {
	for i := range c.LatAcc {
		c.LatAcc[i].Merge(o.LatAcc[i])
		if o.LatHist[i] != nil {
			if c.LatHist[i] == nil {
				c.LatHist[i] = &stats.Hist{}
			}
			c.LatHist[i].Merge(o.LatHist[i])
		}
		if o.Series[i] != nil {
			if c.Series[i] == nil {
				c.Series[i] = stats.NewTimeSeries(o.Series[i].BinWidth)
			}
			c.Series[i].Merge(o.Series[i])
		}
		c.OfferedFlits[i] += o.OfferedFlits[i]
		c.DeliveredFlits[i] += o.DeliveredFlits[i]
		c.DeliveredPkts[i] += o.DeliveredPkts[i]
	}
	src := o.counts()
	for i, n := range c.counts() {
		*n += *src[i]
	}
	c.RecoveryAcc.Merge(o.RecoveryAcc)
	if o.RecoveryHist != nil {
		if c.RecoveryHist == nil {
			c.RecoveryHist = &stats.Hist{}
		}
		c.RecoveryHist.Merge(o.RecoveryHist)
	}
}

// TotalDeliveredFlits sums delivered data flits over all classes.
func (c *Collector) TotalDeliveredFlits() int64 {
	var n int64
	for _, v := range c.DeliveredFlits {
		n += v
	}
	return n
}

// TotalOfferedFlits sums offered data flits over all classes.
func (c *Collector) TotalOfferedFlits() int64 {
	var n int64
	for _, v := range c.OfferedFlits {
		n += v
	}
	return n
}
