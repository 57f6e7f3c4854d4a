//! `serve-mixed`: a live `crr-serve` instance inside this process under a
//! closed loop of two clients (fewer if `nproc` is smaller), each waiting
//! for its reply before sending again. Requests are `/v1/predict` (every
//! tenth a `/v1/check`) over prebuilt electricity batches of 1–2,048 rows,
//! and every 50th request of a client is a `POST /admin/swap` of one of
//! two sound artifacts. The unit op is one data request, timed from
//! connect to the last response byte. The mix is synthetic; each run
//! prints the share of client time each request kind took (README.md).

use crate::inputs::{self, Dataset, Problem, Rng, SETUP_REPS};
use crate::report::median;
use crate::{host, ms_since, Measured, Run};
use crr_core::RuleIndex;
use crr_data::{AttrType, RowSet, Schema, Table, Value};
use crr_discovery::prelude::*;
use crr_obs::json::{self, Json};
use crr_serve::http::{read_request, HttpLimits, Response};
use crr_serve::{RuleStore, ServeConfig, Server};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients, capped at `nproc`: a constant, so the offered
/// load is the same on every host with at least two hardware threads.
const CLIENTS: usize = 2;
/// Prebuilt data requests, cycled by every client.
const POOL: usize = 512;
/// Largest batch; sizes are log-uniform over `1..=MAX_BATCH`.
const MAX_BATCH: usize = 2_048;
/// Every `CHECK_EVERY`-th pool entry is a `/v1/check`.
const CHECK_EVERY: usize = 10;
/// Every `SWAP_EVERY`-th request of a client is a swap.
const SWAP_EVERY: usize = 50;
/// Rows of the pinned request whose answers are compared byte for byte.
const PINNED_ROWS: usize = 2_048;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

struct Request {
    bytes: Vec<u8>,
    rows: Vec<usize>,
    check: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Data(usize),
    Swap,
}

/// One request as a client saw it.
struct Sample {
    kind: Kind,
    start: Instant,
    connected: Instant,
    first_byte: Instant,
    end: Instant,
    outcome: Result<(), String>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn http_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: crr-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn rows_body(table: &Table, rows: &[usize]) -> String {
    let mut body = String::from("{\"rows\": [");
    for (i, &r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push('[');
        for (j, v) in table.row(r).iter().enumerate() {
            if j > 0 {
                body.push_str(", ");
            }
            match v {
                Value::Null => body.push_str("null"),
                Value::Int(x) => body.push_str(&x.to_string()),
                Value::Float(x) => body.push_str(&json::num(*x)),
                Value::Str(s) => {
                    body.push('"');
                    body.push_str(&json::esc(s));
                    body.push('"');
                }
            }
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}

/// The seeded request pool: batch sizes stratified over a log-uniform
/// distribution (so every seed gets the same size mix), rows drawn at
/// random, order shuffled.
fn request_pool(table: &Table, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let span = ((MAX_BATCH + 1) as f64).ln();
    let mut pool: Vec<Request> = (0..POOL)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / POOL as f64;
            let n = ((u * span).exp() as usize).clamp(1, MAX_BATCH);
            let rows: Vec<usize> = (0..n).map(|_| rng.below(table.num_rows())).collect();
            let check = i % CHECK_EVERY == 0;
            let path = if check { "/v1/check" } else { "/v1/predict" };
            Request {
                bytes: http_request(path, &rows_body(table, &rows)),
                rows,
                check,
            }
        })
        .collect();
    rng.shuffle(&mut pool);
    pool
}

/// Connects with `TCP_NODELAY`, sends `req`, reads to EOF into `buf`.
/// Returns when the connection came up and when the first byte arrived.
fn exchange(addr: SocketAddr, req: &[u8], buf: &mut Vec<u8>) -> io::Result<(Instant, Instant)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let connected = Instant::now();
    stream.write_all(req)?;
    buf.clear();
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk)?;
    let first_byte = Instant::now();
    if n == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
    }
    buf.extend_from_slice(&chunk[..n]);
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok((connected, first_byte))
}

fn body_of(raw: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(raw).ok()?;
    text.split_once("\r\n\r\n").map(|(_, b)| b)
}

/// Checks a response: status 200 and, for data requests, a complete
/// answer covering every row of the batch.
fn verify(raw: &[u8], kind: Kind, pool: &[Request]) -> Result<(), String> {
    if !raw.starts_with(b"HTTP/1.1 200 ") {
        let head = String::from_utf8_lossy(&raw[..raw.len().min(64)]).into_owned();
        return Err(format!("non-200 response: {head:?}"));
    }
    let body = body_of(raw).ok_or("response has no body")?;
    let head = &body[..body.len().min(160)];
    let ok = match kind {
        Kind::Swap => head.contains("\"swapped\": true"),
        Kind::Data(i) => {
            head.contains("\"complete\": true")
                && head.contains(&format!("\"answered\": {},", pool[i].rows.len()))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("incomplete answer: {head}"))
    }
}

/// One closed-loop client: request after request until `deadline`,
/// cycling the pool from `offset`; every `SWAP_EVERY`-th is a swap.
fn client(
    addr: SocketAddr,
    pool: &[Request],
    swaps: &[Vec<u8>; 2],
    offset: usize,
    deadline: Instant,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut buf = Vec::with_capacity(1 << 20);
    let mut next = offset;
    let mut sent = 0usize;
    while Instant::now() < deadline {
        sent += 1;
        let (kind, bytes) = if sent.is_multiple_of(SWAP_EVERY) {
            (Kind::Swap, &swaps[(sent / SWAP_EVERY) % 2])
        } else {
            next = (next + 1) % pool.len();
            (Kind::Data(next), &pool[next].bytes)
        };
        let start = Instant::now();
        let (connected, first_byte, outcome) = match exchange(addr, bytes, &mut buf) {
            Ok((c, f)) => (c, f, verify(&buf, kind, pool)),
            Err(e) => (start, start, Err(format!("transport: {e}"))),
        };
        out.push(Sample {
            kind,
            start,
            connected,
            first_byte,
            end: Instant::now(),
            outcome,
        });
    }
    out
}

/// Runs the closed loop for `seconds` against `addr`.
fn load(
    addr: SocketAddr,
    pool: &[Request],
    swaps: &[Vec<u8>; 2],
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let clients = CLIENTS.min(host::nproc());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client(addr, pool, swaps, c * pool.len() / clients, deadline)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (samples, started.elapsed().as_secs_f64())
}

/// Offline predictions for `rows` of `table`, rendered as the server
/// renders them.
fn expected_predictions(artifact: &RuleSetArtifact, table: &Table, rows: &[usize]) -> String {
    let mut probe = Table::new(table.schema().clone());
    for &r in rows {
        probe
            .push_row(table.row(r))
            .expect("rows of the same schema");
    }
    let index = RuleIndex::build(&artifact.rules, &probe);
    let compiled = index.compile(&probe);
    let rendered: Vec<String> = (0..probe.num_rows())
        .map(|r| compiled.predict(r).map_or("null".to_string(), json::num))
        .collect();
    format!("\"predictions\": [{}]", rendered.join(", "))
}

struct Setup {
    problem: Problem,
    artifacts: [RuleSetArtifact; 2],
    server: Server,
}

fn setup(run: &mut Run, rep: u64) -> Result<Setup, String> {
    let table = inputs::generate(
        Dataset::Electricity,
        inputs::ELECTRICITY_ROWS,
        run.seed,
        &mut run.tracer,
        rep,
    );
    let problem = inputs::problem(Dataset::Electricity, table, &mut run.tracer, rep);
    let half = RowSet::from_indices((0..problem.table.num_rows() as u32 / 2).collect());
    let export = |rows: Option<RowSet>| {
        let mut session = DiscoverySession::on(&problem.table)
            .predicates(problem.space.clone())
            .config(problem.cfg.clone());
        if let Some(rows) = rows {
            session = session.rows(rows);
        }
        session
            .export()
            .map(|(_, a)| a)
            .map_err(|e| format!("discovery: {e}"))
    };
    let artifacts = [export(None)?, export(Some(half))?];
    let server = start_server(&artifacts[0], MetricsSink::disabled())?;
    Ok(Setup {
        problem,
        artifacts,
        server,
    })
}

fn start_server(artifact: &RuleSetArtifact, sink: MetricsSink) -> Result<Server, String> {
    let store = RuleStore::open(artifact.clone(), sink).map_err(|e| format!("store open: {e}"))?;
    Server::start(Arc::new(store), ServeConfig::default()).map_err(|e| format!("bind: {e}"))
}

pub fn run(run: &mut Run) -> Measured {
    let mut m = Measured::default();
    run.tracer.set_enabled(run.trace);
    let t = Instant::now();
    let ready = setup(run, 0);
    m.setup_s.push(t.elapsed().as_secs_f64());
    let Some(Setup {
        problem,
        artifacts,
        server,
    }) = run.report.op(ready)
    else {
        return m;
    };
    let table = &problem.table;
    for (i, a) in artifacts.iter().enumerate() {
        let report = crr_analyze::analyze_artifact_on(a, table);
        run.report.check(report.is_sound(), || {
            format!("swap artifact {i} fails A1–A7: {:?}", report.findings)
        });
    }
    let texts = [artifacts[0].to_text(), artifacts[1].to_text()];
    let swaps = [
        http_request("/admin/swap", &texts[0]),
        http_request("/admin/swap", &texts[1]),
    ];
    let pool = request_pool(table, run.seed);

    // Untraced load, in segments with the set-up repeated between them
    // (each repeat stands up its own server and shuts it down).
    run.tracer.set_enabled(false);
    let mut clock = run.schedule();
    let mut samples = Vec::new();
    for k in 0..SETUP_REPS {
        let (mut part, wall) = load(
            server.addr(),
            &pool,
            &swaps,
            clock.left() / (SETUP_REPS - k) as f64,
        );
        samples.append(&mut part);
        m.busy_s += wall;
        if clock.setup_due() {
            let t = Instant::now();
            let rep = setup(run, k as u64 + 1);
            m.setup_s.push(t.elapsed().as_secs_f64());
            if let Some(rep) = run.report.op(rep) {
                rep.server.shutdown();
            }
        }
    }
    tally(run, &samples, &mut m, false);
    m.rows = samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| match s.kind {
            Kind::Data(i) => pool[i].rows.len() as f64,
            Kind::Swap => 0.0,
        })
        .sum();
    time_shares(run, &samples, &pool);
    pinned(run, server.addr(), table, &artifacts, &texts, &mut m);
    server.shutdown();

    if run.trace {
        let sink = MetricsSink::enabled();
        if let Some(traced) = run.report.op(start_server(&artifacts[0], sink.clone())) {
            run.tracer.set_enabled(true);
            let (samples, _) = load(traced.addr(), &pool, &swaps, run.loop_seconds());
            traced.shutdown();
            tally(run, &samples, &mut m, true);
            let snap = sink.snapshot();
            for name in [
                "requests",
                "shed",
                "timeouts",
                "bad_requests",
                "swap_accepted",
            ] {
                let v = snap.count("serve", name).unwrap_or(0) as f64;
                run.layer(&format!("serve.{name}"), v);
            }
            replay(run, &pool, &samples, &artifacts, &texts);
        }
    }
    m
}

/// Counts every request into the ledger and collects latencies; the
/// traced half also records client spans.
fn tally(run: &mut Run, samples: &[Sample], m: &mut Measured, traced: bool) {
    for (i, s) in samples.iter().enumerate() {
        run.report.op(s.outcome.clone());
        let Kind::Data(_) = s.kind else {
            if !traced && s.outcome.is_ok() {
                m.swap_ms.push(s.ms());
            }
            continue;
        };
        if traced {
            m.traced_op_ms.push(s.ms());
            let op = i as u64 + 1;
            let tr = &mut run.tracer;
            let parent = tr.record("op", op, None, s.start, s.end);
            tr.record("serve.connect", op, parent, s.start, s.connected);
            tr.record("serve.first_byte", op, parent, s.connected, s.first_byte);
            tr.record("serve.read", op, parent, s.first_byte, s.end);
        } else {
            m.op_ms.push(s.ms());
        }
    }
}

/// Notes the share of the clients' busy time that predict, check and
/// swap requests took: how much of the load the synthetic mix puts on
/// each path.
fn time_shares(run: &mut Run, samples: &[Sample], pool: &[Request]) {
    let mut ms = [0.0; 3];
    for s in samples {
        let k = match s.kind {
            Kind::Data(i) if pool[i].check => 1,
            Kind::Data(_) => 0,
            Kind::Swap => 2,
        };
        ms[k] += s.ms();
    }
    let total: f64 = ms.iter().sum();
    let pct = |v: f64| 100.0 * v / total.max(f64::MIN_POSITIVE);
    run.report.note(
        "client_time_share_pct",
        format!(
            "predict {:.1}, check {:.1}, swap {:.1}",
            pct(ms[0]),
            pct(ms[1]),
            pct(ms[2])
        ),
    );
}

/// Swaps each artifact in over HTTP and checks that the pinned request's
/// served predictions equal offline `CompiledIndex` predictions; the
/// first artifact's answers give the served RMSE and coverage.
fn pinned(
    run: &mut Run,
    addr: SocketAddr,
    table: &Table,
    artifacts: &[RuleSetArtifact; 2],
    texts: &[String; 2],
    m: &mut Measured,
) {
    let step = (table.num_rows() / PINNED_ROWS).max(1);
    let rows: Vec<usize> = (0..table.num_rows())
        .step_by(step)
        .take(PINNED_ROWS)
        .collect();
    let request = http_request("/v1/predict", &rows_body(table, &rows));
    let mut buf = Vec::new();
    for i in [1, 0] {
        let swapped = exchange(addr, &http_request("/admin/swap", &texts[i]), &mut buf)
            .map_err(|e| format!("pinned swap: {e}"))
            .and_then(|_| verify(&buf, Kind::Swap, &[]));
        if run.report.op(swapped).is_none() {
            continue;
        }
        let answered =
            exchange(addr, &request, &mut buf).map_err(|e| format!("pinned request: {e}"));
        if run.report.op(answered).is_none() {
            continue;
        }
        let body = body_of(&buf).unwrap_or("");
        let expected = expected_predictions(&artifacts[i], table, &rows);
        run.report.check(body.contains(&expected), || {
            format!("served predictions of artifact {i} differ from offline CompiledIndex")
        });
        if i == 0 {
            let target = artifacts[0].rules.rules()[0].target();
            let served: Vec<Option<f64>> = json::parse(body)
                .ok()
                .and_then(|d| {
                    d.get("predictions")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::to_vec)
                })
                .unwrap_or_default()
                .iter()
                .map(Json::as_num)
                .collect();
            let (mut sq, mut n) = (0.0, 0usize);
            for (&r, p) in rows.iter().zip(&served) {
                if let (Some(p), Some(y)) = (p, table.value_f64(r, target)) {
                    sq += (p - y) * (p - y);
                    n += 1;
                }
            }
            m.rmse = (sq / n.max(1) as f64).sqrt();
            m.coverage = n as f64 / rows.len() as f64;
            m.rules = artifacts[0].rules.len() as f64;
        }
    }
}

/// Decodes a batch body as the server's batch handlers do: a `rows`
/// array of one cell per attribute, integral numbers for `Int` columns, a
/// type error for any other mismatch, and a valid `deadline_ms` if one is
/// given.
fn decode_batch(body: &[u8], schema: &Schema) -> Result<Table, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = json::parse(text)?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "body lacks a \"rows\" array".to_string())?;
    if let Some(v) = doc.get("deadline_ms") {
        v.as_num()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| "\"deadline_ms\" must be a non-negative number".to_string())?;
    }
    let mut table = Table::new(schema.clone());
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| format!("row {i} is not an array"))?;
        if cells.len() != schema.len() {
            return Err(format!(
                "row {i} has {} cells, schema has {} attributes",
                cells.len(),
                schema.len()
            ));
        }
        let mut values = Vec::with_capacity(cells.len());
        for (cell, (_, attr)) in cells.iter().zip(schema.iter()) {
            values.push(match (cell, attr.ty()) {
                (Json::Null, _) => Value::Null,
                (Json::Num(x), AttrType::Int) if x.fract() == 0.0 && x.abs() <= i64::MAX as f64 => {
                    Value::Int(*x as i64)
                }
                (Json::Num(x), AttrType::Float) => Value::Float(*x),
                (Json::Str(s), AttrType::Str) => Value::str(s),
                (got, want) => {
                    return Err(format!("row {i}: expected a {want} value, got {got:?}"))
                }
            });
        }
        table
            .push_row(values)
            .map_err(|e| format!("row {i}: {e}"))?;
    }
    Ok(table)
}

/// Offline replay of the server's layers on the same request bytes:
/// parse, decode, index build, predict, render — and `other` as the
/// traced client latency minus those layers, per predict request.
fn replay(
    run: &mut Run,
    pool: &[Request],
    samples: &[Sample],
    artifacts: &[RuleSetArtifact; 2],
    texts: &[String; 2],
) {
    let rules = &artifacts[0].rules;
    let schema = artifacts[0].schema.clone();
    let limits = HttpLimits::default();
    for (i, req) in pool.iter().enumerate() {
        if req.check {
            continue;
        }
        let latencies: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == Kind::Data(i) && s.outcome.is_ok())
            .map(Sample::ms)
            .collect();
        let t = Instant::now();
        let parsed = read_request(&mut BufReader::new(req.bytes.as_slice()), &limits);
        let parse_ms = ms_since(t);
        let Ok(parsed) = parsed else {
            run.report
                .check(false, || format!("replay: request {i} does not parse"));
            continue;
        };
        let t = Instant::now();
        let decoded = decode_batch(&parsed.body, &schema);
        let decode_ms = ms_since(t);
        let Some(table) = run
            .report
            .op(decoded.map_err(|e| format!("replay: request {i}: {e}")))
        else {
            continue;
        };
        let t = Instant::now();
        let index = RuleIndex::build(rules, &table);
        let compiled = index.compile(&table);
        let build_ms = ms_since(t);
        let t = Instant::now();
        let predictions: Vec<Option<f64>> =
            (0..table.num_rows()).map(|r| compiled.predict(r)).collect();
        let predict_ms = ms_since(t);
        let t = Instant::now();
        let mut body = String::from("{\"predictions\": [");
        for (k, p) in predictions.iter().enumerate() {
            if k > 0 {
                body.push_str(", ");
            }
            body.push_str(&p.map_or("null".to_string(), json::num));
        }
        body.push_str("]}");
        let mut wire = Vec::new();
        let _ = Response::json(200, body).write_to(&mut wire);
        let render_ms = ms_since(t);
        run.report.check(table.num_rows() == req.rows.len(), || {
            format!(
                "replay: request {i} decoded {} of {} rows",
                table.num_rows(),
                req.rows.len()
            )
        });
        run.layer("serve.http_parse_ms", parse_ms);
        run.layer("serve.json_decode_ms", decode_ms);
        run.layer("serve.index_build_ms", build_ms);
        run.layer("serve.predict_ms", predict_ms);
        run.layer("serve.render_ms", render_ms);
        if !latencies.is_empty() {
            let layers = parse_ms + decode_ms + build_ms + predict_ms + render_ms;
            run.layer("serve.other_ms", median(&latencies) - layers);
        }
    }
    // The swap's server side: parse + A1–A7 admission + publish.
    if let Ok(store) = RuleStore::open(artifacts[0].clone(), MetricsSink::disabled()) {
        for k in 0..10 {
            let t = Instant::now();
            let swapped = store.try_swap_text(&texts[(k + 1) % 2]);
            run.layer("serve.swap_ms", ms_since(t));
            run.report
                .op(swapped.map(|_| ()).map_err(|e| format!("replay swap: {e}")));
        }
    }
}
