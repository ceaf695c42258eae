//! The served-bytes contract at the workspace root: an in-process job
//! server answers a repeated `rc_step` job from its result store, and
//! every document it serves is byte-identical to `encode_tran_result` of
//! the direct `transient` call, so each sample parses back to the engine's
//! bits.

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_serve::json::Json;
use sfet_serve::{encode_tran_result, Client, ServeConfig, Server};
use sfet_sim::{transient, SimOptions};

const JOB: &str = r#"{"scenario":"rc_step","params":{"r":2200,"tstop":5e-12}}"#;

/// The same circuit and options `rc_step` resolves `JOB` to.
fn direct_result() -> sfet_sim::TranResult {
    let (tstop, t_ramp) = (5e-12, 1e-12);
    let mut ckt = Circuit::new();
    let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
    ckt.add_voltage_source("V1", inp, gnd, SourceWaveform::ramp(0.0, 1.0, 0.0, t_ramp))
        .unwrap();
    ckt.add_resistor("R1", inp, out, 2200.0).unwrap();
    ckt.add_capacitor("C1", out, gnd, 1e-15).unwrap();
    transient(&ckt, tstop, &SimOptions::for_duration(tstop, 400)).unwrap()
}

fn submit(client: &Client) -> (u16, Json) {
    let response = client.submit_raw(JOB).unwrap();
    (response.status, response.json().unwrap())
}

fn bits(values: &[Json]) -> Vec<u64> {
    values
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect()
}

fn raw_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn repeated_job_is_a_cache_hit_serving_the_direct_call_bytes() {
    let dir = std::env::temp_dir().join(format!("sfet-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = std::sync::Arc::new(
        Server::bind("127.0.0.1:0", ServeConfig::new(&dir).with_workers(1)).unwrap(),
    );
    let handle = server.spawn();
    let client = Client::new(server.addr());

    let (status, first) = submit(&client);
    assert_eq!(status, 202, "a fresh job is accepted: {first:?}");
    let first_id = first
        .get("job_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let events = client.follow_events(&first_id).unwrap();
    assert_eq!(events.last().unwrap().0, "done", "events: {events:?}");

    let (status, second) = submit(&client);
    assert_eq!(status, 200, "the repeat is answered from the store");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    let second_id = second.get("job_id").and_then(Json::as_str).unwrap();

    let health = client.health().unwrap().json().unwrap();
    assert_eq!(health.get("sim_attempts").and_then(Json::as_f64), Some(1.0));
    assert_eq!(health.get("cache_hits").and_then(Json::as_f64), Some(1.0));

    let a = client.result(&first_id).unwrap();
    let b = client.result(second_id).unwrap();
    assert_eq!((a.status, b.status), (200, 200));
    assert_eq!(a.body, b.body, "the hit serves the stored bytes");
    let direct = direct_result();
    assert_eq!(a.body, encode_tran_result(&direct), "served == direct call");

    let doc = a.json().unwrap();
    let times = doc.get("times").and_then(Json::as_arr).unwrap();
    assert_eq!(bits(times), raw_bits(direct.times()));
    let Some(Json::Obj(nodes)) = doc.get("nodes") else {
        panic!("nodes is not an object");
    };
    assert_eq!(nodes.len(), direct.node_names().count());
    for (name, samples) in nodes {
        let samples = samples.as_arr().unwrap();
        assert_eq!(
            bits(samples),
            raw_bits(direct.node_samples(name).unwrap()),
            "{name}"
        );
    }
    let Some(Json::Obj(branches)) = doc.get("branches") else {
        panic!("branches is not an object");
    };
    assert_eq!(branches.len(), direct.branch_names().count());
    for (name, samples) in branches {
        let wave = direct.branch_current(name).unwrap();
        assert_eq!(
            bits(samples.as_arr().unwrap()),
            raw_bits(wave.values()),
            "{name}"
        );
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// 64-bit FNV-1a, local to this file so the pins depend on nothing but
/// the bytes the server sends.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts `body` has the pinned length and FNV-1a; a mismatch prints
/// the new pin and the start of the body.
fn pin(what: &str, body: &str, len: usize, hash: u64) {
    let got = (body.len(), fnv1a(body.as_bytes()));
    assert_eq!(
        got,
        (len, hash),
        "{what} bytes changed: now ({}, {:#018x}), starting {:?}",
        got.0,
        got.1,
        &body[..body.len().min(200)]
    );
}

/// The SSE stream of one job, re-framed block by block.
fn sse_text(events: &[(String, String)]) -> String {
    events
        .iter()
        .map(|(name, data)| format!("event: {name}\ndata: {data}\n\n"))
        .collect()
}

/// A PTM driven through its transitions, as a netlist job.
const PTM_JOB: &str = r#"{"netlist":"* PTM rectifier\n.model vo2fast ptm TPTM=5p\nVIN in 0 PULSE(0 1 20p 20p 20p 100p 250p)\nP1 in out vo2fast\nC1 out 0 5f\nR1 out 0 100k\n.tran 0.5p 500p\n.end\n"}"#;

/// A two-generation optimize run.
const OPTIMIZE_JOB: &str = r#"{"optimize":{"generations":2,"population":4,"seed":7}}"#;

/// Every kind of body the server writes, pinned by length and FNV-1a:
/// a change to any served byte fails here, whatever wrote it.
#[test]
fn served_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("sfet-serve-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = std::sync::Arc::new(
        Server::bind("127.0.0.1:0", ServeConfig::new(&dir).with_workers(1)).unwrap(),
    );
    let handle = server.spawn();
    let client = Client::new(server.addr());

    let health = client.health().unwrap();
    pin("idle healthz", &health.body, 253, 0x44f1_0048_bdf3_6a47);

    let error = client.submit_raw(r#"{"scenario":"rc_step","#).unwrap();
    assert_eq!(error.status, 400);
    pin("error body", &error.body, 70, 0xe827_5bb3_8b2f_b2a6);

    let receipt = client.submit_raw(JOB).unwrap();
    assert_eq!(receipt.status, 202);
    pin("submit receipt", &receipt.body, 77, 0x88be_e648_e5b3_25dc);
    let id = receipt.json().unwrap();
    let id = id.get("job_id").and_then(Json::as_str).unwrap();
    pin(
        "SSE stream",
        &sse_text(&client.follow_events(id).unwrap()),
        2131,
        0x732e_fa58_8e2c_6146,
    );
    pin(
        "status body",
        &client.status(id).unwrap().body,
        112,
        0x9596_344d_7b4b_4b08,
    );
    pin(
        "rc_step result",
        &client.result(id).unwrap().body,
        29173,
        0xa45d_c6fe_180d_5104,
    );

    let ptm = client.run_to_result(PTM_JOB).unwrap();
    let events = Json::parse(&ptm).unwrap();
    let events = events.get("ptm").and_then(|p| p.get("P1"));
    let events = events.and_then(|p| p.get("events")).and_then(Json::as_arr);
    assert!(!events.unwrap().is_empty(), "the PTM transitions");
    pin("PTM result", &ptm, 81927, 0xa811_9df1_8a53_f618);

    let optimize = client.run_to_result(OPTIMIZE_JOB).unwrap();
    pin("optimize.v1 result", &optimize, 2789, 0x353b_8662_0fa4_d7b0);

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
