//! ASCII Gantt renderer of a recorded run.
//!
//! Makes the schedule *visible*: `examples/trace_gantt.rs` uses it to
//! reproduce the flavour of the paper's Figure 3 (the four steps of the
//! maximum re-use algorithm) from an actual run of either engine.

use crate::event::{Dir, MatTag, ObsEvent};
use crate::span::{spans, Track};

/// Renders a recorded [`ObsEvent`] stream as an ASCII Gantt chart: one
/// row per observed port lane (`k > 1` contention models get `k` rows),
/// a communication and a computation row per worker, and a master
/// decision row. DAG frontier promotions are listed under the chart with
/// their `job:task` labels, since a one-column marker cannot carry them.
///
/// Symbols: on the port rows `>` master→worker transfer and `<`
/// worker→master retrieval; on a worker's comm row the same, except
/// that a dispatched operand shows its matrix (`C` chunk load, `b` B
/// row, `a` A column); `#` compute; and on the master row `^` frontier
/// promotion, `L` LP re-solve, `J` job admission, `D` job completion,
/// `X` worker crash. Intervals that never close (a crashed step) stay
/// undrawn, exactly like the engine cancels them.
///
/// `width` is the number of character columns for the time axis.
pub fn render_gantt(events: &[ObsEvent], num_workers: usize, width: usize) -> String {
    assert!(width >= 10, "gantt width too small");
    let horizon = events.iter().map(ObsEvent::time).fold(0.0, f64::max);
    if horizon <= 0.0 {
        return String::from("(empty trace)\n");
    }
    let scale = |t: f64| ((t / horizon) * (width as f64 - 1.0)).round() as usize;
    let spans = spans(events);
    let port_lanes = spans
        .iter()
        .filter_map(|s| match s.track {
            Track::Port { lane, .. } => Some(lane + 1),
            _ => None,
        })
        .max()
        .unwrap_or(1);

    // Row layout: port lanes, then comm/cpu per worker, then master.
    let mut lanes: Vec<(String, Vec<char>)> = Vec::new();
    for l in 0..port_lanes {
        lanes.push((format!("port L{l}"), vec![' '; width]));
    }
    for w in 0..num_workers {
        lanes.push((format!("w{w} comm"), vec![' '; width]));
        lanes.push((format!("w{w} cpu "), vec![' '; width]));
    }
    let master_row = lanes.len();
    lanes.push(("master ".into(), vec![' '; width]));
    let comm_row = |w: usize| port_lanes + 2 * w;
    let cpu_row = |w: usize| port_lanes + 2 * w + 1;

    let fill = |lanes: &mut [(String, Vec<char>)], row: usize, start: f64, end: f64, ch: char| {
        let (s, e) = (scale(start), scale(end).max(scale(start) + 1));
        for cell in lanes[row].1[s..e.min(width)].iter_mut() {
            *cell = ch;
        }
    };
    let mark = |lanes: &mut [(String, Vec<char>)], row: usize, time: f64, ch: char| {
        let col = scale(time).min(width - 1);
        lanes[row].1[col] = ch;
    };

    for s in &spans {
        let Some(end) = s.end else { continue };
        match s.track {
            Track::Port {
                lane,
                worker,
                dir,
                dispatch,
                ..
            } => {
                let wire = match dir {
                    Dir::ToWorker => '>',
                    Dir::ToMaster => '<',
                };
                fill(&mut lanes, lane, s.start, end, wire);
                if worker < num_workers {
                    let ch = match dispatch {
                        Some((MatTag::A, _)) => 'a',
                        Some((MatTag::B, _)) => 'b',
                        Some((MatTag::C, _)) => 'C',
                        None => wire,
                    };
                    fill(&mut lanes, comm_row(worker), s.start, end, ch);
                }
            }
            Track::Compute { worker, .. } if worker < num_workers => {
                fill(&mut lanes, cpu_row(worker), s.start, end, '#');
            }
            _ => {}
        }
    }

    let mut promotions: Vec<String> = Vec::new();
    for e in events {
        match *e {
            ObsEvent::FrontierPromote {
                time,
                job,
                task,
                worker,
                frontier_width,
            } => {
                mark(&mut lanes, master_row, time, '^');
                promotions.push(format!(
                    "  t={time:<8.3} job {job} task {task} -> w{worker} (frontier {frontier_width})"
                ));
            }
            ObsEvent::LpResolve { time, .. } => mark(&mut lanes, master_row, time, 'L'),
            ObsEvent::JobAdmitted { time, .. } => mark(&mut lanes, master_row, time, 'J'),
            ObsEvent::JobCompleted { time, .. } => mark(&mut lanes, master_row, time, 'D'),
            ObsEvent::WorkerDown { time, worker } => {
                mark(&mut lanes, master_row, time, 'X');
                let worker = worker as usize;
                if worker < num_workers {
                    mark(&mut lanes, cpu_row(worker), time, 'X');
                }
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!("t = 0 .. {horizon:.3}s\n"));
    for (label, cells) in lanes {
        out.push_str(&label);
        out.push(' ');
        out.push('|');
        out.extend(cells);
        out.push('|');
        out.push('\n');
    }
    if !promotions.is_empty() {
        out.push_str("DAG frontier promotions (^):\n");
        for p in promotions {
            out.push_str(&p);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::testlog::{acquire, compute, release, start};

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(render_gantt(&[], 2, 40), "(empty trace)\n");
    }

    #[test]
    fn draws_lanes_operands_compute_and_dag_promotions() {
        let mut events = vec![
            ObsEvent::Dispatch {
                time: 0.0,
                worker: 0,
                chunk: 1,
                step: 0,
                mat: MatTag::C,
                blocks: 1,
            },
            acquire(0.0, 0, 0, Dir::ToWorker, 1),
            acquire(1.0, 1, 1, Dir::ToWorker, 2),
            ObsEvent::FrontierPromote {
                time: 1.5,
                job: 3,
                task: 7,
                worker: 1,
                frontier_width: 2,
            },
            release(4.0, 0, 0, Dir::ToWorker, 1),
            release(5.0, 1, 1, Dir::ToWorker, 2),
        ];
        events.extend(compute(4.0, 9.0, 0, 1));
        events.push(acquire(9.0, 0, 0, Dir::ToMaster, 1));
        events.push(release(10.0, 0, 0, Dir::ToMaster, 1));
        let g = render_gantt(&events, 2, 40);
        let row = |label: &str| g.lines().find(|l| l.starts_with(label)).unwrap();
        // Two concurrently held lanes mean two port rows.
        assert!(row("port L0").contains('>') && row("port L0").contains('<'));
        assert!(row("port L1").contains('>'));
        // A dispatched operand shows its matrix on the comm row; an
        // undispatched send and a retrieval show their direction.
        assert!(row("w0 comm").contains('C') && row("w0 comm").contains('<'));
        assert!(!row("w0 comm").contains('>'), "{g}");
        assert!(row("w1 comm").contains('>'));
        assert!(row("w0 cpu").contains('#'));
        // The DAG promotion is marked and labelled with job:task.
        assert!(row("master").contains('^'), "{g}");
        assert!(g.contains("job 3 task 7 -> w1 (frontier 2)"), "{g}");
    }

    #[test]
    fn never_closes_a_crashed_compute() {
        let events = vec![
            start(0.0, 0, 1, 0),
            ObsEvent::WorkerDown {
                time: 2.0,
                worker: 0,
            },
        ];
        let g = render_gantt(&events, 1, 40);
        assert!(!g.contains('#'), "cancelled step must not draw: {g}");
        assert!(g.contains('X'), "{g}");
    }
}
