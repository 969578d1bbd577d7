//! The open-loop load generator: queries fall due on a fixed schedule,
//! whatever the program does, and each is timed from its due time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How close to a due time the generator stops sleeping and polls the
/// clock, so that a late wake-up from sleep does not delay the query.
/// The poll has no pause hint: a virtual machine may take a pausing
/// loop for a waiting lock and hand its CPU away for milliseconds.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// What an open-loop run measured.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    /// Per query: from its due time to the return of the call.
    pub latency_us: Vec<f64>,
    /// Per query: from its due time to its submission.
    pub late_ms: Vec<f64>,
    /// From the first due time to the last answer.
    pub span_s: f64,
}

/// Calls `query(i)` for `i = 0, 1, ...`, query `i` due `i / rate_qps`
/// seconds after the start, until `stop` is set; the first query is
/// always sent. A query that falls due while an earlier one is still
/// running is sent as soon as that returns, and its latency still
/// counts from its due time, so a stall shows in every query that fell
/// due during it.
pub fn open_loop(rate_qps: f64, stop: &AtomicBool, mut query: impl FnMut(usize)) -> OpenLoopLog {
    let start = Instant::now();
    let mut log = OpenLoopLog::default();
    for i in 0.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate_qps);
        if let Some(nap) = due
            .saturating_duration_since(Instant::now())
            .checked_sub(SPIN_WINDOW)
        {
            std::thread::sleep(nap);
        }
        let mut now = Instant::now();
        while now < due {
            now = Instant::now();
        }
        log.late_ms.push((now - due).as_secs_f64() * 1e3);
        query(i);
        log.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
        if stop.load(Ordering::Acquire) {
            break;
        }
    }
    log.span_s = start.elapsed().as_secs_f64();
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_shows_in_the_latency_of_the_queries_due_during_it() {
        let stop = AtomicBool::new(false);
        // 1,000 queries/s: query `i` is due at `i` ms. Query 10 stalls
        // for 30 ms, so queries 11 to 39 fall due before it returns.
        let log = open_loop(1000.0, &stop, |i| {
            if i == 10 {
                std::thread::sleep(Duration::from_millis(30));
            }
            if i == 60 {
                stop.store(true, Ordering::Release);
            }
        });
        assert_eq!(log.latency_us.len(), 61);
        assert!(log.latency_us[10] >= 30_000.0);
        // Query 11 was due at 11 ms and sent at about 40 ms; query 30,
        // due at 30 ms, was sent at about the same time.
        assert!(log.latency_us[11] >= 28_000.0, "{}", log.latency_us[11]);
        assert!(log.late_ms[11] >= 28.0, "{}", log.late_ms[11]);
        assert!(log.latency_us[30] >= 9_000.0, "{}", log.latency_us[30]);
        assert!(log.span_s >= 0.060);
    }

    #[test]
    fn the_first_query_is_sent_even_when_already_stopped() {
        let stop = AtomicBool::new(true);
        let mut calls = 0;
        let log = open_loop(2000.0, &stop, |_| calls += 1);
        assert_eq!((calls, log.latency_us.len(), log.late_ms.len()), (1, 1, 1));
    }
}
