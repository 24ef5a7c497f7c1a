//! Pacing: the only module in the workspace allowed to touch the wall
//! clock or spawn threads.
//!
//! The daemon loop ([`crate::Daemon::run`]) computes every tick the same
//! way regardless of pacing; a [`Pacer`] only decides *when* the next
//! iteration starts. Confining `Instant`/`thread` here keeps the
//! determinism bans of `clippy.toml` whole: everything else in the crate is
//! wall-clock-free, which is what lets a max-speed daemon run journal
//! byte-identically to a one-shot batch run.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the daemon's wall-clock and thread boundary: pacing decides when the next tick runs, never what it computes, and owns the stdin reader thread"
)]

use std::io::BufRead;
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::{Duration, Instant};

/// Decides when the next loop iteration may start. `idle` is true when
/// the loop is paused with no step budget — a pacer should sleep then
/// instead of spinning, whatever its normal cadence.
pub trait Pacer {
    /// Called after every loop iteration.
    fn pace(&mut self, idle: bool);

    /// Tells the pacer how far the simulation has advanced (called once
    /// per iteration, before [`Pacer::pace`]). Default: ignore — only
    /// pacers whose cadence depends on progress (e.g. [`Catchup`]) care.
    fn observe_tick(&mut self, _tick: u64) {}
}

/// No pacing: ticks run back-to-back as fast as the simulation computes
/// them. While idle (paused), naps briefly so a paused interactive
/// session does not burn a core polling stdin.
pub struct MaxSpeed;

impl Pacer for MaxSpeed {
    fn pace(&mut self, idle: bool) {
        if idle {
            thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Real-time pacing: holds the loop to a fixed number of ticks per
/// wall-clock second using absolute deadlines, so sleep jitter does not
/// accumulate drift. A stall longer than one period (e.g. a laptop
/// suspend) re-anchors rather than fast-forwarding a burst of ticks.
pub struct RealTime {
    period: Duration,
    deadline: Instant,
}

impl RealTime {
    /// Paces at `ticks_per_sec` (clamped to a sane positive range).
    pub fn new(ticks_per_sec: f64) -> Self {
        let tps = ticks_per_sec.clamp(0.01, 1_000_000.0);
        let period = Duration::from_secs_f64(1.0 / tps);
        RealTime {
            period,
            deadline: Instant::now() + period,
        }
    }
}

impl Pacer for RealTime {
    fn pace(&mut self, idle: bool) {
        if idle {
            // Paused: hold cadence anchored to "now" so resuming does not
            // replay the paused interval as a burst.
            thread::sleep(self.period.min(Duration::from_millis(50)));
            self.deadline = Instant::now() + self.period;
            return;
        }
        let now = Instant::now();
        if let Some(wait) = self.deadline.checked_duration_since(now) {
            thread::sleep(wait);
            self.deadline += self.period;
        } else if now.duration_since(self.deadline) > self.period {
            // Fell badly behind; re-anchor instead of sprinting to catch up.
            self.deadline = now + self.period;
        } else {
            self.deadline += self.period;
        }
    }
}

/// Catch-up pacing for restored sessions: runs at max speed until the
/// simulation reaches `target` — the tick the interrupted run had gotten
/// to before it died — then hands pacing over to the wrapped pacer. An
/// operator restoring a real-time session re-simulates the lost interval
/// as fast as it computes instead of watching the replay in real time.
pub struct Catchup<P: Pacer> {
    target: u64,
    caught_up: bool,
    inner: P,
}

impl<P: Pacer> Catchup<P> {
    /// Replays at max speed until the simulated tick reaches `target`,
    /// then paces with `inner`.
    pub fn new(target: u64, inner: P) -> Self {
        Catchup {
            target,
            caught_up: false,
            inner,
        }
    }

    /// True once the replay has reached the target and `inner` paces.
    pub fn is_caught_up(&self) -> bool {
        self.caught_up
    }
}

impl<P: Pacer> Pacer for Catchup<P> {
    fn observe_tick(&mut self, tick: u64) {
        if !self.caught_up && tick >= self.target {
            self.caught_up = true;
        }
        self.inner.observe_tick(tick);
    }

    fn pace(&mut self, idle: bool) {
        if self.caught_up {
            self.inner.pace(idle);
        } else if idle {
            // Still catching up but paused: nap like MaxSpeed does.
            thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Spawns the interactive input thread: reads stdin line-by-line and
/// forwards each line over a channel the non-blocking
/// [`crate::StdinSource`] drains at tick boundaries. The thread exits
/// when stdin closes; send errors (daemon gone) end it too.
pub fn spawn_stdin_reader() -> Receiver<String> {
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new()
        .name("lunule-daemon-stdin".to_string())
        .spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(text) => {
                        if tx.send(text).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
    // If the thread could not start, the receiver just reports "no input
    // ever" — the daemon still runs its script.
    drop(spawned);
    rx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_speed_running_does_not_sleep() {
        let start = Instant::now();
        let mut pacer = MaxSpeed;
        for _ in 0..1000 {
            pacer.pace(false);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn catchup_is_free_until_the_target_then_delegates() {
        struct CountingPacer(u32);
        impl Pacer for CountingPacer {
            fn pace(&mut self, _idle: bool) {
                self.0 += 1;
            }
        }
        let mut pacer = Catchup::new(10, CountingPacer(0));
        for tick in 1..=9 {
            pacer.observe_tick(tick);
            pacer.pace(false);
        }
        assert!(!pacer.is_caught_up());
        assert_eq!(pacer.inner.0, 0, "inner pacer must not run during replay");
        pacer.observe_tick(10);
        pacer.pace(false);
        assert!(pacer.is_caught_up());
        assert_eq!(pacer.inner.0, 1);
    }

    #[test]
    fn real_time_holds_the_requested_cadence() {
        let mut pacer = RealTime::new(1000.0);
        let start = Instant::now();
        for _ in 0..20 {
            pacer.pace(false);
        }
        // 20 ticks at 1000/s is 20ms of pacing; allow generous slack for
        // scheduler jitter but catch a pacer that does not sleep at all.
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(10), "{elapsed:?}");
    }
}
