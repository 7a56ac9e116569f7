//! `cad3 top` — a live ops console for the health engine.
//!
//! Runs the 2-RSU handover scenario in virtual time with the health
//! monitor ticking as a simulation observer, capturing one rendered frame
//! per tick, then plays the frames back at the contract's real-time
//! cadence with an ANSI full-screen redraw — `top` for the CAD3 pipeline:
//! per-RSU health states, the live SLO table with burn rates, and the
//! alert log as it happened.
//!
//! Because the frames come from the deterministic run, the console shows
//! exactly what `obs_report --check` gates on, just animated. When stdout
//! is not a terminal it skips the animation and prints the final frame, so
//! piping `cad3_top` into a file is still useful.

use cad3::Observer;
use cad3_bench::{console, handover_monitor, handover_run};
use cad3_types::SimDuration;
use std::cell::RefCell;
use std::io::{self, IsTerminal, Write as _};
use std::rc::Rc;

fn main() {
    cad3_obs::set_enabled(true);

    let monitor = handover_monitor().unwrap_or_else(|e| {
        eprintln!("cad3_top: {e}");
        std::process::exit(2);
    });
    let tick_ns = monitor.contract().tick_ns;

    // One frame per health tick, captured during the deterministic run.
    let monitor = Rc::new(RefCell::new(monitor));
    let frames: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let hook_monitor = Rc::clone(&monitor);
    let hook_frames = Rc::clone(&frames);
    let observer = Observer {
        interval: SimDuration::from_nanos(tick_ns),
        hook: Box::new(move |now| {
            let mut mon = hook_monitor.borrow_mut();
            mon.tick(now.as_nanos());
            let mut frame = console::frame(&mon, now.as_nanos());
            frame.push('\n');
            frame.push_str(&console::profile_block(&cad3_obs::profile::snapshot()));
            hook_frames.borrow_mut().push(frame);
        }),
    };

    let report = handover_run(vec![observer]).unwrap_or_else(|e| {
        eprintln!("cad3_top: corpus not trainable: {e}");
        std::process::exit(2);
    });

    let frames = frames.borrow();
    if io::stdout().is_terminal() {
        // Replay at the contract cadence: a 100 ms tick becomes a 100 ms
        // redraw, so the animation runs at the speed the pipeline ran.
        let mut pacer =
            cad3_obs::clock::WallClockPacer::new(std::time::Duration::from_nanos(tick_ns));
        for frame in frames.iter() {
            print!("\x1b[2J\x1b[H{frame}");
            let _ = io::stdout().flush();
            pacer.wait();
        }
        println!();
    } else if let Some(last) = frames.last() {
        println!("{last}");
    }
    for r in &report.per_rsu {
        println!("[{}] {}", r.name, r.latency.summary_line());
    }
}
