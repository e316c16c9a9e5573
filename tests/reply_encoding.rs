//! Reply-encoding pin: the server streams each reply's match list into
//! the reply line without building a `Json` tree, and the bytes on the
//! wire must be exactly what the tree encoder printed. For each front
//! end, `query` (over a thousand matches), `query_topk`, `query_batch`
//! and `explain` go over a raw socket, and every `"matches":[…]` text in
//! the reply is compared with the tree encoding — copied below verbatim
//! — of the same query run directly on the pipeline.

use datagen::{synthetic_refgraph, SyntheticConfig};
use pathindex::PathIndexConfig;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{QueryOptions, QueryPipeline, QueryResult};
use pegmatch::pattern::parse_pattern;
use pegmatch::Peg;
use pegserve::{obj, Json, ServeMode, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// The tree encoder the server used before streaming, verbatim.
fn matches_json(result: &QueryResult) -> Json {
    Json::Arr(
        result
            .matches
            .iter()
            .map(|m| {
                obj()
                    .field(
                        "nodes",
                        Json::Arr(m.nodes.iter().map(|e| Json::Num(e.0 as f64)).collect()),
                    )
                    .field("prle", m.prle)
                    .field("prn", m.prn)
                    .field("prob", m.prob())
                    .build()
            })
            .collect(),
    )
}

fn build_graph() -> (Peg, OfflineIndex) {
    let refs = synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(300, 0.2));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let offline = OfflineIndex::build(
        &peg,
        &OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() } },
    )
    .unwrap();
    (peg, offline)
}

/// Every `"matches":[…]` array of a reply line, in order. Match lists
/// hold only numbers and brackets, so bracket depth finds each end.
fn matches_texts(line: &str) -> Vec<&str> {
    let key = "\"matches\":";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = line[from..].find(key) {
        let start = from + at + key.len();
        let mut depth = 0usize;
        let mut end = start;
        for (i, b) in line.bytes().enumerate().skip(start) {
            match b {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                end = i + 1;
                break;
            }
        }
        assert!(end > start, "unterminated matches array");
        out.push(&line[start..end]);
        from = end;
    }
    out
}

fn check_front_end(mode: ServeMode) {
    let (peg, offline) = build_graph();
    let pipe = QueryPipeline::new(&peg, &offline);
    let opts = QueryOptions::default();
    let labels = peg.graph.label_table();
    let direct = |pattern: &str, alpha: f64, limit: usize| {
        let q = parse_pattern(pattern, labels).unwrap();
        let res = pipe.run_limited(&q, alpha, Some(limit), &opts).unwrap();
        matches_json(&res).to_string()
    };
    let topk = |pattern: &str, k: usize| {
        let q = parse_pattern(pattern, labels).unwrap();
        matches_json(&pipe.run_topk(&q, k, 1e-9, &opts).unwrap()).to_string()
    };

    let big = ("(x:l0)-(y:l1)-(z:l2)", 0.01, 1_500);
    let expected_big = direct(big.0, big.1, big.2);
    let n_big = Json::parse(&expected_big).unwrap().as_arr().unwrap().len();
    assert!(n_big >= 1_000, "the bulk query should return over a thousand matches, got {n_big}");

    let cases: Vec<(String, Vec<String>)> = vec![
        (
            format!(
                r#"{{"op":"query","pattern":"{}","alpha":{},"limit":{}}}"#,
                big.0, big.1, big.2
            ),
            vec![expected_big.clone()],
        ),
        (
            r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.2,"id":5}"#.to_string(),
            vec![direct("(x:l0)-(y:l1)", 0.2, 10_000)],
        ),
        (
            r#"{"op":"query_topk","pattern":"(a:l1)-(b:l0)","k":40}"#.to_string(),
            vec![topk("(a:l1)-(b:l0)", 40)],
        ),
        (
            concat!(
                r#"{"op":"query_batch","queries":[{"pattern":"(x:l0)-(y:l1)","alpha":0.3},"#,
                r#"{"pattern":"(a:l1)-(b:l0)-(c:l2)","alpha":0.05,"limit":300},"#,
                r#"{"pattern":"(x:l0)","alpha":0.9}]}"#
            )
            .to_string(),
            vec![
                direct("(x:l0)-(y:l1)", 0.3, 10_000),
                direct("(a:l1)-(b:l0)-(c:l2)", 0.05, 300),
                direct("(x:l0)", 0.9, 10_000),
            ],
        ),
        (
            r#"{"op":"explain","pattern":"(x:l0)-(y:l1)-(z:l2)","alpha":0.05,"limit":1000}"#
                .to_string(),
            vec![direct("(x:l0)-(y:l1)-(z:l2)", 0.05, 1_000)],
        ),
    ];

    let server =
        Server::bind("127.0.0.1:0", ServerConfig { serve_mode: mode, ..Default::default() })
            .unwrap();
    server.insert_graph("g", peg.clone(), offline.clone());
    let handle = server.spawn();
    let mut stream = TcpStream::connect(handle.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for (request, want) in &cases {
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let body = line.strip_suffix('\n').expect("reply ends in a newline");
        let reply = Json::parse(body).unwrap_or_else(|e| panic!("{request}: {e}"));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{request}");
        let got = matches_texts(body);
        assert_eq!(got.len(), want.len(), "{request}");
        for (g, w) in got.iter().zip(want) {
            assert!(*g == w.as_str(), "{request}: streamed match bytes differ from the tree's");
        }
    }
    drop(reader);
    drop(stream);
    handle.shutdown().unwrap();
}

#[test]
fn thread_front_end_writes_the_tree_encoders_bytes() {
    check_front_end(ServeMode::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn epoll_front_end_writes_the_tree_encoders_bytes() {
    check_front_end(ServeMode::Epoll);
}
