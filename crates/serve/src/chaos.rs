//! Deterministic fault injection for robustness testing.
//!
//! The server calls [`point`] / [`io_point`] / [`io_shape`] at named
//! **sites** on its hot paths (`"classify"`, `"batcher"`, `"respond"`,
//! `"reload"`, `"write"`, `"event_loop"`, `"registry"`). In a
//! normal build those calls compile to nothing; under `cfg(test)` or the
//! `chaos` cargo feature a test can arm a site with [`inject`] and the
//! next hits fire the configured [`Fault`]:
//!
//! ```ignore
//! chaos::inject("classify", Fault::Panic, Trigger::Probability { p: 0.05, seed: 42 });
//! chaos::inject("write", Fault::IoError, Trigger::EveryNth(50));
//! ```
//!
//! Probability triggers draw from a per-site seeded xorshift stream, so
//! a chaos run is reproducible byte-for-byte: same seed, same faults, in
//! the same order (per site — thread interleaving still varies which
//! *request* each fault lands on, which is the point of the exercise).
//!
//! This is the measurement half of the robustness story: the serve layer
//! claims to survive panics, slow I/O, and write failures, and the chaos
//! integration test injects exactly those and checks the metrics balance
//! afterwards instead of assuming it.

/// Shape of one event-loop I/O operation as decided by [`io_shape`]
/// (always `Normal` when chaos is compiled out).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoShape {
    /// Perform the syscall as-is.
    Normal,
    /// Pretend the fd is not ready: skip the syscall, stay registered.
    Eagain,
    /// Cap the transfer at one byte (partial read / short write).
    Short,
    /// Replace the syscall with an injected failure.
    Error,
}

#[cfg(any(test, feature = "chaos"))]
mod imp {
    use super::IoShape;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Duration;

    /// What an armed site does when it fires.
    #[derive(Clone, Debug)]
    pub enum Fault {
        /// `panic!` at the site (exercises `catch_unwind`).
        Panic,
        /// Sleep for the given duration (stalled I/O, slow reload).
        Delay(Duration),
        /// Surface an injected `io::Error` (only at [`io_point`] sites).
        IoError,
        /// Pretend the socket is not ready (`EAGAIN`) at an [`io_shape`]
        /// site: the event loop must back off to the poller and retry,
        /// never spin or drop the connection.
        Eagain,
        /// Truncate one readiness-loop read/write to a single byte at an
        /// [`io_shape`] site: exercises partial-progress resumption in
        /// the parser and the response writer.
        ShortIo,
    }

    /// When an armed site fires.
    #[derive(Clone, Debug)]
    pub enum Trigger {
        /// Fire each hit independently with probability `p`, drawn from a
        /// xorshift stream seeded with `seed` (deterministic per site).
        Probability {
            /// Chance in `[0, 1]` that one hit fires.
            p: f64,
            /// Stream seed; equal seeds give equal fire patterns.
            seed: u64,
        },
        /// Fire every `n`-th hit (1-based; `EveryNth(1)` fires always).
        EveryNth(u64),
        /// Fire the first `n` hits, then go quiet.
        Times(u64),
    }

    struct Site {
        fault: Fault,
        trigger: Trigger,
        hits: u64,
        fires: u64,
        rng: u64,
    }

    impl Site {
        fn should_fire(&mut self) -> bool {
            self.hits += 1;
            let fire = match self.trigger {
                Trigger::Probability { p, .. } => {
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    ((self.rng >> 11) as f64 / (1u64 << 53) as f64) < p
                }
                Trigger::EveryNth(n) => self.hits.is_multiple_of(n.max(1)),
                Trigger::Times(n) => self.hits <= n,
            };
            if fire {
                self.fires += 1;
            }
            fire
        }
    }

    /// `true` as soon as any site is armed — the fast path for unarmed
    /// production-shaped runs is one relaxed load.
    static ARMED: AtomicBool = AtomicBool::new(false);
    static SITES: OnceLock<Mutex<HashMap<&'static str, Site>>> = OnceLock::new();

    fn sites() -> MutexGuard<'static, HashMap<&'static str, Site>> {
        SITES
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site` with a fault and a firing rule (replacing any previous
    /// arming of the same site).
    pub fn inject(site: &'static str, fault: Fault, trigger: Trigger) {
        let rng = match trigger {
            // Seed 0 would make xorshift emit zeros forever.
            Trigger::Probability { seed, .. } => seed | 1,
            _ => 1,
        };
        sites().insert(site, Site { fault, trigger, hits: 0, fires: 0, rng });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarms one site (its hit/fire counts are discarded).
    pub fn clear_site(site: &str) {
        let mut map = sites();
        map.remove(site);
        if map.is_empty() {
            ARMED.store(false, Ordering::SeqCst);
        }
    }

    /// Disarms everything. Prefer [`clear_site`] inside test binaries
    /// whose tests run concurrently.
    pub fn clear() {
        sites().clear();
        ARMED.store(false, Ordering::SeqCst);
    }

    /// How many times `site` has fired (for test assertions).
    pub fn fired(site: &str) -> u64 {
        sites().get(site).map_or(0, |s| s.fires)
    }

    /// How many times `site` was hit, fired or not.
    pub fn hits(site: &str) -> u64 {
        sites().get(site).map_or(0, |s| s.hits)
    }

    fn draw(site: &str) -> Option<Fault> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let mut map = sites();
        let entry = map.get_mut(site)?;
        entry.should_fire().then(|| entry.fault.clone())
    }

    /// A fault site that can panic or stall. Injected `IoError`s are
    /// meaningless here and ignored.
    pub fn point(site: &'static str) {
        match draw(site) {
            Some(Fault::Panic) => panic!("chaos: injected panic at '{site}'"),
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::IoError) | Some(Fault::Eagain) | Some(Fault::ShortIo) | None => {}
        }
    }

    /// A fault site on an I/O path: returns the injected error (panics
    /// and delays also apply).
    pub fn io_point(site: &'static str) -> std::io::Result<()> {
        match draw(site) {
            Some(Fault::Panic) => panic!("chaos: injected panic at '{site}'"),
            Some(Fault::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(Fault::IoError) => {
                Err(std::io::Error::other(format!("chaos: injected i/o error at '{site}'")))
            }
            Some(Fault::Eagain) | Some(Fault::ShortIo) | None => Ok(()),
        }
    }

    /// How an event-loop read/write at `site` should behave this hit.
    /// Unlike [`io_point`], the caller applies the shape *before* the
    /// syscall: `Eagain` skips it (fake not-ready), `Short` caps the
    /// transfer at one byte, `Error` replaces it with a failure.
    pub fn io_shape(site: &'static str) -> IoShape {
        match draw(site) {
            Some(Fault::Panic) => panic!("chaos: injected panic at '{site}'"),
            Some(Fault::Delay(d)) => {
                std::thread::sleep(d);
                IoShape::Normal
            }
            Some(Fault::Eagain) => IoShape::Eagain,
            Some(Fault::ShortIo) => IoShape::Short,
            Some(Fault::IoError) => IoShape::Error,
            None => IoShape::Normal,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn every_nth_fires_on_schedule() {
            inject("chaos_self_nth", Fault::Panic, Trigger::EveryNth(3));
            let fired_pattern: Vec<bool> = (0..9)
                .map(|_| std::panic::catch_unwind(|| point("chaos_self_nth")).is_err())
                .collect();
            assert_eq!(fired_pattern, [false, false, true, false, false, true, false, false, true]);
            assert_eq!(fired("chaos_self_nth"), 3);
            clear_site("chaos_self_nth");
        }

        #[test]
        fn times_fires_then_goes_quiet() {
            inject("chaos_self_times", Fault::IoError, Trigger::Times(2));
            assert!(io_point("chaos_self_times").is_err());
            assert!(io_point("chaos_self_times").is_err());
            for _ in 0..20 {
                assert!(io_point("chaos_self_times").is_ok());
            }
            assert_eq!(fired("chaos_self_times"), 2);
            clear_site("chaos_self_times");
        }

        #[test]
        fn probability_stream_is_deterministic_and_near_rate() {
            let run = |site: &'static str| -> (u64, Vec<bool>) {
                inject(site, Fault::IoError, Trigger::Probability { p: 0.25, seed: 99 });
                let pattern: Vec<bool> = (0..4000).map(|_| io_point(site).is_err()).collect();
                let n = fired(site);
                clear_site(site);
                (n, pattern)
            };
            let (fires_a, pattern_a) = run("chaos_self_prob_a");
            let (fires_b, pattern_b) = run("chaos_self_prob_b");
            assert_eq!(pattern_a, pattern_b, "same seed must fire identically");
            assert_eq!(fires_a, fires_b);
            let rate = fires_a as f64 / 4000.0;
            assert!((0.18..0.32).contains(&rate), "rate {rate} far from p=0.25");
        }

        #[test]
        fn unarmed_sites_are_inert() {
            point("chaos_self_unarmed");
            assert!(io_point("chaos_self_unarmed").is_ok());
            assert_eq!(fired("chaos_self_unarmed"), 0);
        }
    }
}

#[cfg(any(test, feature = "chaos"))]
pub use imp::*;

// Production builds (no `chaos` feature): every site is a no-op the
// optimizer removes entirely.
#[cfg(not(any(test, feature = "chaos")))]
mod stub {
    /// No-op fault site (chaos disabled at compile time).
    #[inline(always)]
    pub fn point(_site: &'static str) {}

    /// No-op I/O fault site (chaos disabled at compile time).
    #[inline(always)]
    pub fn io_point(_site: &'static str) -> std::io::Result<()> {
        Ok(())
    }

    /// No-op I/O shape site (chaos disabled at compile time).
    #[inline(always)]
    pub fn io_shape(_site: &'static str) -> super::IoShape {
        super::IoShape::Normal
    }
}

#[cfg(not(any(test, feature = "chaos")))]
pub use stub::*;
