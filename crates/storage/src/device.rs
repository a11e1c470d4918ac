//! Secondary-storage device model.

use chaos_sim::{rng::mix2, Resource, Time, MIB, MICROS};

/// Bandwidth/latency profile of a storage device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Sustained sequential bandwidth in bytes/second.
    pub bandwidth: u64,
    /// Per-request setup latency.
    pub latency: Time,
}

impl DeviceProfile {
    /// The paper's SSD: ~400 MB/s (§8); request latency measured to be
    /// approximately equal to the 40 GigE round trip (§10.1), which pins
    /// the batching amplification φ at 2.
    pub fn ssd() -> Self {
        Self {
            name: "SSD",
            bandwidth: 400 * MIB,
            latency: 50 * MICROS,
        }
    }

    /// The paper's RAID-0 pair of magnetic disks: ~200 MB/s (§8). The
    /// positioning latency is scaled down with the reproduction's chunk
    /// size (the paper amortizes ~4 ms of positioning over 4 MiB chunks;
    /// our scaled 32-256 KiB chunks get a proportionally smaller penalty)
    /// so the HDD's *effective* bandwidth stays at half the SSD's — the
    /// ratio Figure 11 measures.
    pub fn hdd() -> Self {
        Self {
            name: "HDD",
            bandwidth: 200 * MIB,
            latency: 100 * MICROS,
        }
    }
}

/// One transient fault window: the device rejects the selected operation
/// kinds while `from <= now < until`. Windows are static for a run —
/// injection is a pure function of simulated time, which keeps faulted
/// runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First faulted instant (inclusive).
    pub from: Time,
    /// First healthy instant (exclusive end of the window).
    pub until: Time,
    /// Whether reads fault inside the window.
    pub reads: bool,
    /// Whether writes fault inside the window.
    pub writes: bool,
}

/// A silent-corruption window: while `from <= now < until`, a read whose
/// frame check is evaluated at `now` is corrupted iff
/// `mix2(salt, now ^ key) % one_in == 0` — a pure function of
/// `(seed-derived salt, simulated time, read key)`, so faulted runs stay
/// reproducible. The window flips bits *on the wire*, never in the stored
/// chunk: a later re-read of the same data draws a fresh verdict, which is
/// what makes bounded-backoff re-reads the right first rung of the repair
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionWindow {
    /// First corruptible instant (inclusive).
    pub from: Time,
    /// First clean instant (exclusive end of the window).
    pub until: Time,
    /// Seed- and machine-derived salt for the corruption hash.
    pub salt: u64,
    /// Roughly one in `one_in` framed reads inside the window is corrupted
    /// (1 = every read).
    pub one_in: u64,
}

/// A transient device fault reported by [`Device::try_read`] /
/// [`Device::try_write`]: the operation was rejected without occupying
/// the device. Carries when the last covering window closes so callers
/// can bound their retry loops deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceError {
    /// Earliest instant at which the operation can succeed again.
    pub until: Time,
}

/// Per-direction byte counters for a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes read from the device (cache hits excluded).
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Reads absorbed by the page cache.
    pub cache_hits: u64,
    /// Bytes served from the page cache.
    pub cache_bytes: u64,
}

/// A storage device: a FIFO rate server plus accounting.
///
/// Chaos storage engines serve one chunk request in its entirety before the
/// next (§6.2), so a single FIFO queue per device is the faithful model.
#[derive(Debug, Clone)]
pub struct Device {
    profile: DeviceProfile,
    server: Resource,
    stats: DeviceStats,
    faults: Vec<FaultWindow>,
    corruption: Vec<CorruptionWindow>,
}

impl Device {
    /// Creates a device from a profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self {
            profile,
            server: Resource::new(profile.bandwidth, profile.latency),
            stats: DeviceStats::default(),
            faults: Vec::new(),
            corruption: Vec::new(),
        }
    }

    /// Installs the transient fault windows for this run. An empty list
    /// (the default) leaves every operation on the exact fault-free
    /// arithmetic path.
    pub fn set_faults(&mut self, faults: Vec<FaultWindow>) {
        self.faults = faults;
    }

    /// Installs the silent-corruption windows for this run. An empty list
    /// (the default) makes every frame check pass unconditionally.
    pub fn set_corruption(&mut self, corruption: Vec<CorruptionWindow>) {
        self.corruption = corruption;
    }

    /// The corruption oracle: evaluates the frame check of a read completed
    /// at `now` with deterministic read identity `key`. Returns when the
    /// last corrupting window closes if the frame check fails, or `None`
    /// if the data arrived intact.
    pub fn corrupt_read(&self, now: Time, key: u64) -> Option<Time> {
        let mut until: Option<Time> = None;
        for w in &self.corruption {
            if w.from <= now
                && now < w.until
                && mix2(w.salt, now ^ key).is_multiple_of(w.one_in.max(1))
            {
                until = Some(until.map_or(w.until, |u| u.max(w.until)));
            }
        }
        until
    }

    /// Returns when the last fault window covering `now` for this
    /// operation kind closes, or `None` if the device is healthy.
    fn faulted(&self, now: Time, write: bool) -> Option<Time> {
        let mut until: Option<Time> = None;
        for w in &self.faults {
            let hits = if write { w.writes } else { w.reads };
            if hits && w.from <= now && now < w.until {
                until = Some(until.map_or(w.until, |u| u.max(w.until)));
            }
        }
        until
    }

    /// The device's profile.
    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    /// Accounting so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Serves a read of `bytes`; returns completion time.
    pub fn read(&mut self, now: Time, bytes: u64) -> Time {
        self.stats.bytes_read += bytes;
        self.stats.reads += 1;
        self.server.serve(now, bytes)
    }

    /// Serves a write of `bytes`; returns completion time.
    pub fn write(&mut self, now: Time, bytes: u64) -> Time {
        self.stats.bytes_written += bytes;
        self.stats.writes += 1;
        self.server.serve(now, bytes)
    }

    /// Serves a read of `bytes` through the fault layer: inside a fault
    /// window covering `now` the operation is rejected without occupying
    /// the device; otherwise identical to [`Device::read`].
    pub fn try_read(&mut self, now: Time, bytes: u64) -> Result<Time, DeviceError> {
        match self.faulted(now, false) {
            Some(until) => Err(DeviceError { until }),
            None => Ok(self.read(now, bytes)),
        }
    }

    /// Serves a write of `bytes` through the fault layer: inside a fault
    /// window covering `now` the operation is rejected without occupying
    /// the device; otherwise identical to [`Device::write`].
    pub fn try_write(&mut self, now: Time, bytes: u64) -> Result<Time, DeviceError> {
        match self.faulted(now, true) {
            Some(until) => Err(DeviceError { until }),
            None => Ok(self.write(now, bytes)),
        }
    }

    /// Records a read absorbed by the page cache: no device occupancy, just
    /// accounting. Returns the (immediate) completion time.
    pub fn cache_read(&mut self, now: Time, bytes: u64) -> Time {
        self.stats.cache_hits += 1;
        self.stats.cache_bytes += bytes;
        now
    }

    /// Total device busy time, for utilization reports (Figure 14).
    pub fn busy_time(&self) -> Time {
        self.server.busy_time()
    }

    /// Device utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Time) -> f64 {
        self.server.utilization(horizon)
    }

    /// Total bytes moved through the physical device.
    pub fn device_bytes(&self) -> u64 {
        self.stats.bytes_read + self.stats.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_sim::SECS;

    #[test]
    fn profiles_have_paper_bandwidths() {
        assert_eq!(DeviceProfile::ssd().bandwidth, 400 * MIB);
        assert_eq!(DeviceProfile::hdd().bandwidth, 200 * MIB);
        assert!(DeviceProfile::hdd().latency > DeviceProfile::ssd().latency);
    }

    #[test]
    fn reads_and_writes_share_the_queue() {
        let mut d = Device::new(DeviceProfile {
            name: "test",
            bandwidth: 100 * MIB,
            latency: 0,
        });
        let r = d.read(0, 100 * MIB);
        let w = d.write(0, 100 * MIB);
        assert_eq!(r, SECS);
        assert_eq!(w, 2 * SECS);
        assert_eq!(d.device_bytes(), 200 * MIB);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn fault_windows_reject_selected_kinds() {
        let mut d = Device::new(DeviceProfile::ssd());
        d.set_faults(vec![FaultWindow {
            from: 1000,
            until: 5000,
            reads: true,
            writes: false,
        }]);
        // Before the window: healthy.
        assert!(d.try_read(999, 64).is_ok());
        // Inside: reads fault with the window's close time, writes pass.
        assert_eq!(d.try_read(1000, 64), Err(DeviceError { until: 5000 }));
        assert!(d.try_write(1000, 64).is_ok());
        // The exclusive end is healthy again.
        assert!(d.try_read(5000, 64).is_ok());
        // Failed attempts never occupy the device or count bytes.
        assert_eq!(d.stats().reads, 2);
    }

    #[test]
    fn overlapping_fault_windows_report_last_close() {
        let mut d = Device::new(DeviceProfile::ssd());
        d.set_faults(vec![
            FaultWindow {
                from: 0,
                until: 3000,
                reads: true,
                writes: true,
            },
            FaultWindow {
                from: 1000,
                until: 8000,
                reads: true,
                writes: true,
            },
        ]);
        assert_eq!(d.try_write(2000, 64), Err(DeviceError { until: 8000 }));
    }

    #[test]
    fn corruption_oracle_is_deterministic_and_windowed() {
        let mut d = Device::new(DeviceProfile::ssd());
        assert_eq!(d.corrupt_read(1500, 42), None, "no windows, no corruption");
        d.set_corruption(vec![CorruptionWindow {
            from: 1000,
            until: 5000,
            salt: 0xBEEF,
            one_in: 1,
        }]);
        // one_in = 1: every framed read inside the window fails its check,
        // and the verdict is a pure function of (time, key).
        assert_eq!(d.corrupt_read(1500, 42), Some(5000));
        assert_eq!(d.corrupt_read(1500, 42), Some(5000));
        // Outside the window (exclusive end) the data is clean.
        assert_eq!(d.corrupt_read(999, 42), None);
        assert_eq!(d.corrupt_read(5000, 42), None);
        // Sparser windows corrupt a deterministic subset of reads.
        d.set_corruption(vec![CorruptionWindow {
            from: 0,
            until: 1_000_000,
            salt: 0xBEEF,
            one_in: 4,
        }]);
        let hits = (0..1000u64)
            .filter(|k| d.corrupt_read(10_000, *k).is_some())
            .count();
        assert!((150..400).contains(&hits), "one_in=4 hit {hits}/1000");
    }

    #[test]
    fn overlapping_corruption_windows_report_last_close() {
        let mut d = Device::new(DeviceProfile::ssd());
        d.set_corruption(vec![
            CorruptionWindow {
                from: 0,
                until: 3000,
                salt: 1,
                one_in: 1,
            },
            CorruptionWindow {
                from: 1000,
                until: 8000,
                salt: 2,
                one_in: 1,
            },
        ]);
        assert_eq!(d.corrupt_read(2000, 7), Some(8000));
    }

    #[test]
    fn cache_reads_do_not_occupy_device() {
        let mut d = Device::new(DeviceProfile::ssd());
        let t = d.cache_read(1000, 4 * MIB);
        assert_eq!(t, 1000);
        assert_eq!(d.busy_time(), 0);
        assert_eq!(d.stats().cache_hits, 1);
        assert_eq!(d.device_bytes(), 0);
    }
}
