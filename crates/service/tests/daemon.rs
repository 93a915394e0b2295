//! `retrid` end to end: start the daemon binary, drive a seeded
//! ALLOC/RELEASE stream from two TCP clients, send `quit`, and check
//! that the Prometheus dump it prints on exit counts exactly what the
//! clients were handed and what they released.
//!
//! The clients take turns on one thread, so every request is served
//! before the next is sent and the test can replay the daemon's live
//! multisets to know which mints collided.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri_service::{Reply, Request, StrategyKind, TcpClient};

/// How long the daemon gets to print its address, and to exit after
/// `quit`.
const DEADLINE: Duration = Duration::from_secs(30);

/// The daemon's default shard count.
const SHARDS: u16 = 4;

/// Kills the daemon if the test fails before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Daemon {
    fn wait(&mut self) -> ExitStatus {
        let started = Instant::now();
        loop {
            if let Some(status) = self.0.try_wait().expect("poll retrid") {
                return status;
            }
            assert!(
                started.elapsed() < DEADLINE,
                "retrid did not exit within {DEADLINE:?} of quit"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Every stdout line of the daemon, read on a thread of its own so a
/// silent daemon fails the test instead of hanging it. The thread ends
/// when the daemon's stdout closes.
fn stdout_lines(child: &mut Child) -> (Receiver<String>, JoinHandle<()>) {
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (rx, reader)
}

/// What the clients saw, per strategy code.
#[derive(Default)]
struct Expected {
    minted: [u64; 5],
    collisions: [u64; 5],
    live: [u64; 5],
}

#[test]
fn quit_prints_metrics_that_match_what_the_clients_saw() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_retrid"))
            .args(["--addr", "127.0.0.1:0", "--seed", "7", "--obs"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn retrid"),
    );
    let (lines, reader) = stdout_lines(&mut daemon.0);
    let addr = lines
        .recv_timeout(DEADLINE)
        .expect("retrid prints its address first");

    let mut clients = [
        TcpClient::connect(addr.as_str()).expect("connect client 0"),
        TcpClient::connect(addr.as_str()).expect("connect client 1"),
    ];
    let slots = usize::from(SHARDS) * StrategyKind::ALL.len();
    // Ids each client holds, per (shard, strategy).
    let mut held = vec![vec![Vec::<u128>::new(); slots]; 2];
    // The daemon's live multiset, per (shard, strategy).
    let mut live = vec![BTreeMap::<u128, u64>::new(); slots];
    let mut expected = Expected::default();
    let mut rng = StdRng::seed_from_u64(0x7E57_DAE0);
    for step in 0..600 {
        let who = step % 2;
        let shard = rng.gen_range(0..SHARDS);
        let strategy = StrategyKind::ALL[rng.gen_range(0..StrategyKind::ALL.len())];
        let s = strategy.code() as usize;
        let slot = usize::from(shard) * StrategyKind::ALL.len() + s;
        if rng.gen_bool(0.6) || held[who][slot].is_empty() {
            let count = if rng.gen_bool(0.1) {
                256
            } else {
                rng.gen_range(1..=8)
            };
            let reply = clients[who]
                .request(&Request::Alloc {
                    shard,
                    strategy,
                    count,
                })
                .expect("alloc");
            let Reply::Ids(ids) = reply else {
                panic!("expected IDS, got {reply:?}");
            };
            assert_eq!(ids.len(), count as usize);
            for &id in &ids {
                let holders = live[slot].entry(id).or_insert(0);
                if *holders > 0 {
                    expected.collisions[s] += 1;
                }
                *holders += 1;
            }
            expected.minted[s] += u64::from(count);
            held[who][slot].extend(ids);
        } else {
            let mine = &mut held[who][slot];
            let take = rng.gen_range(1..=mine.len().min(16));
            let ids: Vec<u128> = mine.drain(..take).collect();
            let reply = clients[who]
                .request(&Request::Release {
                    shard,
                    strategy,
                    ids: ids.clone(),
                })
                .expect("release");
            assert_eq!(
                reply,
                Reply::Released {
                    acked: take as u32,
                    misses: 0
                }
            );
            for id in ids {
                let holders = live[slot].get_mut(&id).expect("a held id is live");
                *holders -= 1;
                if *holders == 0 {
                    live[slot].remove(&id);
                }
            }
        }
    }
    for (slot, values) in live.iter().enumerate() {
        expected.live[slot % StrategyKind::ALL.len()] += values.values().sum::<u64>();
    }
    assert!(
        expected.collisions.iter().sum::<u64>() > 0,
        "the stream must mint a collision"
    );
    drop(clients);

    let mut stdin = daemon.0.stdin.take().expect("piped stdin");
    writeln!(stdin, "quit").expect("write quit");
    drop(stdin);
    let status = daemon.wait();
    assert!(status.success(), "retrid exited with {status}");
    // The daemon has exited, so its stdout is closed and the reader
    // thread ends after the last line.
    let dump: BTreeMap<String, String> = lines
        .iter()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("a sample line");
            (series.to_string(), value.to_string())
        })
        .collect();
    reader.join().expect("stdout reader");
    for strategy in StrategyKind::ALL {
        let s = strategy.code() as usize;
        let sample = |name: &str| {
            dump.get(&format!("{name}{{strategy=\"{}\"}}", strategy.name()))
                .unwrap_or_else(|| panic!("no {name} for {}", strategy.name()))
                .as_str()
        };
        assert_eq!(
            sample("svc_minted_total"),
            expected.minted[s].to_string(),
            "{} minted",
            strategy.name()
        );
        assert_eq!(
            sample("svc_collisions_total"),
            expected.collisions[s].to_string(),
            "{} collisions",
            strategy.name()
        );
        assert_eq!(
            sample("svc_live_transactions"),
            format!("{}.0", expected.live[s]),
            "{} live",
            strategy.name()
        );
    }
}
