use cad3_types::{SimDuration, SimTime};

/// A point-to-point wired link with serialization and propagation delay and
/// FIFO queueing — the 1 Gb/s Ethernet (or LTE/5G backhaul) connecting
/// adjacent RSUs in the paper's testbed.
///
/// # Example
///
/// ```
/// use cad3_net::WiredLink;
/// use cad3_types::{SimDuration, SimTime};
///
/// let mut link = WiredLink::gigabit_ethernet();
/// let arrival = link.transmit(SimTime::ZERO, 1500);
/// assert!(arrival > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WiredLink {
    bandwidth_bps: f64,
    propagation: SimDuration,
    next_free: SimTime,
}

impl WiredLink {
    /// Creates a link with the given bandwidth and one-way propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive.
    pub fn new(bandwidth_bps: f64, propagation: SimDuration) -> Self {
        assert!(bandwidth_bps > 0.0, "link bandwidth must be positive");
        WiredLink { bandwidth_bps, propagation, next_free: SimTime::ZERO }
    }

    /// The testbed's RSU interconnect: 1 Gb/s with 100 µs propagation.
    pub fn gigabit_ethernet() -> Self {
        WiredLink::new(1e9, SimDuration::from_micros(100))
    }

    /// A cellular (LTE/5G) backhaul alternative for distant RSUs: 50 Mb/s
    /// with 10 ms one-way latency, per the paper's deployment discussion.
    pub fn cellular_backhaul() -> Self {
        WiredLink::new(50e6, SimDuration::from_millis(10))
    }

    /// Link bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Enqueues a `bytes`-sized frame at `now` and returns its arrival time
    /// at the far end (serialization behind earlier frames + propagation).
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let start = now.max(self.next_free);
        // Saturating: a degenerate bandwidth config yields an unreachable
        // arrival time instead of a panic on the transmit path.
        let ser = SimDuration::saturating_from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps);
        self.next_free = start + ser;
        if cad3_obs::enabled() {
            cad3_obs::counter!("net.link.bytes").add(cad3_types::len_u64(bytes));
            cad3_obs::counter!("net.link.frames").inc();
        }
        self.next_free + self.propagation
    }

    /// [`WiredLink::transmit`], attributing the transfer to an active
    /// distributed trace: emits a `net.link.tx` span covering `now` to
    /// arrival (its value is the FIFO queueing share, in nanoseconds) and
    /// returns the context the far end should continue with, re-parented
    /// under the link span with the hop count bumped. The link is shared
    /// infrastructure, so the span's node id is the `u32::MAX` sentinel.
    pub fn transmit_traced(
        &mut self,
        now: SimTime,
        bytes: usize,
        trace: Option<cad3_obs::TraceContext>,
    ) -> (SimTime, Option<cad3_obs::TraceContext>) {
        let queued_until = now.max(self.next_free);
        let arrival = self.transmit(now, bytes);
        let continued = trace.map(|ctx| {
            let queue_ns = queued_until.saturating_since(now).as_nanos();
            let span = cad3_obs::trace_span!(
                "net.link.tx",
                &ctx,
                now.as_nanos(),
                arrival.as_nanos(),
                u32::MAX,
                queue_ns
            );
            ctx.next_hop(span)
        });
        (arrival, continued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_delay_is_serialization_plus_propagation() {
        let mut link = WiredLink::new(1e6, SimDuration::from_millis(1));
        // 1250 B = 10 kb at 1 Mb/s = 10 ms serialization + 1 ms propagation.
        let arrival = link.transmit(SimTime::ZERO, 1250);
        assert!((arrival.as_millis_f64() - 11.0).abs() < 1e-9, "{arrival}");
    }

    #[test]
    fn frames_queue_fifo() {
        let mut link = WiredLink::new(1e6, SimDuration::ZERO);
        let a1 = link.transmit(SimTime::ZERO, 1250);
        let a2 = link.transmit(SimTime::ZERO, 1250);
        assert!((a1.as_millis_f64() - 10.0).abs() < 1e-9);
        assert!((a2.as_millis_f64() - 20.0).abs() < 1e-9, "second frame queues: {a2}");
    }

    #[test]
    fn idle_link_does_not_accumulate_capacity_debt() {
        let mut link = WiredLink::new(1e6, SimDuration::ZERO);
        let _ = link.transmit(SimTime::ZERO, 1250);
        // A frame sent much later starts fresh.
        let late = link.transmit(SimTime::from_secs(5), 1250);
        assert!((late.as_secs_f64() - 5.01).abs() < 1e-9, "{late}");
    }

    #[test]
    fn gigabit_is_fast() {
        let mut link = WiredLink::gigabit_ethernet();
        let arrival = link.transmit(SimTime::ZERO, 200);
        // 1.6 kb at 1 Gb/s = 1.6 µs + 100 µs propagation.
        assert!(arrival.as_millis_f64() < 0.110, "{arrival}");
    }

    #[test]
    fn cellular_has_higher_latency() {
        let mut eth = WiredLink::gigabit_ethernet();
        let mut cell = WiredLink::cellular_backhaul();
        assert!(cell.transmit(SimTime::ZERO, 200) > eth.transmit(SimTime::ZERO, 200));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        WiredLink::new(0.0, SimDuration::ZERO);
    }

    #[test]
    fn traced_transmit_matches_untraced_and_advances_the_context() {
        let mut plain = WiredLink::new(1e6, SimDuration::from_millis(1));
        let mut traced = WiredLink::new(1e6, SimDuration::from_millis(1));
        let expected = plain.transmit(SimTime::ZERO, 1250);
        let ctx = cad3_obs::TraceContext::from_parts(11, 3, 0);
        let (arrival, continued) = traced.transmit_traced(SimTime::ZERO, 1250, Some(ctx));
        assert_eq!(arrival, expected, "tracing must not perturb link timing");
        let continued = continued.expect("context continues across the link");
        assert_eq!(continued.trace_id(), 11);
        assert_eq!(continued.hop(), 1, "crossing the link bumps the hop count");
        assert_ne!(continued.parent_span(), 3, "re-parented under the link span");
        let events: Vec<_> =
            cad3_obs::trace::sink().drain().into_iter().filter(|e| e.trace_id == 11).collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "net.link.tx");
        assert_eq!(events[0].end_ns, arrival.as_nanos());
        assert_eq!(events[0].span, continued.parent_span());
        // Untraced records pass through without emitting anything.
        let (a2, none) = traced.transmit_traced(SimTime::ZERO, 1250, None);
        assert!(none.is_none());
        assert!(a2 > arrival);
    }
}
