//! Constraint queries run in a child process, so that a query which
//! ignores its own deadline can still be stopped: the parent waits a
//! fixed time for each answer and kills the child when it does not come.
//!
//! The child is this binary started with `--query-worker`. It reads one
//! query per line on stdin (`<graph> <target>`) and answers each with one
//! line: `ok <ns> <size> <throughput> <exact> <caps>` or `err <ns> <message>`
//! (`ns` is the driver call's own wall time),
//! followed, when traced, by a line holding the query's [`OpTrace`].

use crate::inputs::{self, Loaded};
use crate::ops::{self, Driver, OpConfig};
use crate::trace::OpTrace;
use crate::workload::QUERY_DEADLINE;
use buffy_graph::Rational;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The graphs a worker loads.
pub const GRAPHS: [&str; 4] = ["modem", "cd2dat", "satellite", "gen"];

/// The child side: answers queries until stdin closes.
pub fn serve(seed: u64, trace: bool) -> Result<(), String> {
    let loaded: Vec<Loaded> = GRAPHS
        .iter()
        .map(|name| {
            let source = inputs::source(name, seed)?;
            let (model, observed) = inputs::parse(&source)?;
            Ok(Loaded {
                source,
                model,
                observed,
            })
        })
        .collect::<Result<_, String>>()?;
    let cfg = OpConfig {
        live: false,
        trace,
        deadline: QUERY_DEADLINE,
    };
    // A query that ignores its deadline would outlive a parent that died
    // without killing it; exit as soon as the parent is gone.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(3);
        }
    });
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (graph, target) = line.split_once(' ').ok_or("bad query line")?;
        let l = loaded
            .iter()
            .find(|l| l.source.name == graph)
            .ok_or_else(|| format!("unknown graph {graph}"))?;
        let target: Rational = target.parse().map_err(|_| "bad target")?;
        let mut outcome = ops::run(l, Driver::Constraint(target), &cfg);
        let ns = outcome.ns;
        let answer = match (&outcome.error, outcome.points.first()) {
            (Some(e), _) => format!("err {ns} {e}"),
            (None, Some((size, thr, dist))) => {
                let caps: Vec<String> = dist.iter().map(u64::to_string).collect();
                let exact = u8::from(outcome.exact);
                format!("ok {ns} {size} {thr} {exact} {}", caps.join(","))
            }
            (None, None) => format!("err {ns} no witness returned"),
        };
        writeln!(out, "{answer}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
        ops::probe(l, &mut outcome);
        if let Some(t) = &outcome.trace {
            writeln!(out, "{}", t.encode()).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A query's answer as the parent sees it.
#[derive(Debug, Clone)]
pub enum Answer {
    /// The driver call's wall time, and its witness: size, throughput,
    /// exactness, capacities.
    Witness(u64, u64, Rational, bool, Vec<u64>),
    /// The driver call's wall time and the error it returned.
    Error(u64, String),
    /// No answer within the deadline: the child was killed.
    Stopped,
}

/// The parent side: one running child.
pub struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    trace: bool,
}

impl Worker {
    /// Starts a child answering queries on `seed`'s graphs.
    pub fn spawn(seed: u64, trace: bool) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["--query-worker", "--seed", &seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the query worker: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Worker {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            trace,
        })
    }

    /// Peak resident memory of the child so far, in kB.
    pub fn peak_rss_kb(&self) -> u64 {
        crate::stats::peak_rss_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends one query and waits at most `wait` for its answer.
    pub fn query(
        &mut self,
        graph: &str,
        target: Rational,
        wait: Duration,
    ) -> Result<Answer, String> {
        let stdin = self.stdin.as_mut().ok_or("worker already closed")?;
        writeln!(stdin, "{graph} {target}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("query worker: {e}"))?;
        match self.lines.recv_timeout(wait) {
            Ok(line) => parse_answer(&line),
            Err(RecvTimeoutError::Timeout) => Ok(Answer::Stopped),
            Err(RecvTimeoutError::Disconnected) => Err("query worker exited".into()),
        }
    }

    /// The trace of the query just answered, when the worker traces. The
    /// child runs its estimate probes between the answer and this line.
    pub fn trace(&mut self) -> Result<Option<OpTrace>, String> {
        if !self.trace {
            return Ok(None);
        }
        let line = self
            .lines
            .recv()
            .map_err(|_| "query worker exited before its trace")?;
        OpTrace::decode(&line).map(Some)
    }

    /// Ends the child — killed when `kill` is set, else by closing its
    /// stdin — and waits for it and its reader. Returns its peak resident
    /// memory in kB.
    pub fn end(mut self, kill: bool) -> u64 {
        let peak = self.peak_rss_kb();
        drop(self.stdin.take());
        if kill {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        peak
    }
}

impl Drop for Worker {
    /// A worker dropped on an error path must not outlive the benchmark.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn parse_answer(line: &str) -> Result<Answer, String> {
    let bad = || format!("bad answer line {line:?}");
    let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
    let (ns, rest) = rest.split_once(' ').ok_or_else(bad)?;
    let ns = ns.parse().map_err(|_| bad())?;
    if kind == "err" {
        return Ok(Answer::Error(ns, rest.to_string()));
    }
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ("ok", [size, thr, exact, caps]) = (kind, &fields[..]) else {
        return Err(bad());
    };
    let caps = caps
        .split(',')
        .map(|c| c.parse().map_err(|_| bad()))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(Answer::Witness(
        ns,
        size.parse().map_err(|_| bad())?,
        thr.parse().map_err(|_| bad())?,
        *exact == "1",
        caps,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_parse() {
        let Ok(Answer::Witness(ns, size, thr, exact, caps)) = parse_answer("ok 12 6 1/7 1 4,2")
        else {
            panic!("witness expected");
        };
        assert_eq!(
            (ns, size, thr, exact, caps),
            (12, 6, Rational::new(1, 7), true, vec![4, 2])
        );
        assert!(
            matches!(parse_answer("err 5 no witness"), Ok(Answer::Error(5, m)) if m == "no witness")
        );
        assert!(parse_answer("ok 1 2").is_err());
    }
}
