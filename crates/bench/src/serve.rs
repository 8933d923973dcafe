//! Wire-compatibility tests for `inrpp serve`.
//!
//! The protocol, transports and session scheduler live in the
//! `inrpp-server` crate; `inrpp serve` on stdio runs its line loop. These
//! tests pin the v1 protocol bytes that sid-less scripts get back from
//! that loop.

#[cfg(test)]
mod tests {
    use inrpp_server::serve_lines;
    use std::io::Cursor;

    fn run(script: &str) -> Vec<String> {
        let mut input = Cursor::new(script.to_string());
        let mut out = Vec::new();
        serve_lines(&mut input, &mut out).expect("serve loop");
        String::from_utf8(out)
            .expect("utf8 replies")
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// The v1 wire format must survive the move to the daemon: plain
    /// sid-less scripts produce the same reply shapes as before.
    #[test]
    fn v1_wire_format_is_preserved() {
        for engine in ["fluid", "packet"] {
            let script = format!(
                concat!(
                    r#"{{"cmd":"open","engine":"{}","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}}"#,
                    "\n",
                    r#"{{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":800,"start_secs":0}}"#,
                    "\n",
                    r#"{{"cmd":"advance","to_secs":1.5}}"#,
                    "\n",
                    r#"{{"cmd":"snapshot"}}"#,
                    "\n",
                    r#"{{"cmd":"close"}}"#,
                    "\n",
                ),
                engine
            );
            let replies = run(&script);
            assert_eq!(replies.len(), 5, "{engine}: {replies:?}");
            for r in &replies {
                assert!(r.starts_with("{\"ok\":true"), "expected ok: {r}");
                assert!(!r.contains("\"sid\""), "bare sessions carry no sid: {r}");
            }
            assert!(replies[0].contains("\"event\":\"open\""), "{}", replies[0]);
            assert!(replies[2].contains("\"now_secs\":1.5"), "{}", replies[2]);
            assert!(
                replies[4].contains("\"event\":\"close\"")
                    && replies[4].contains("\"arrived_flows\":1")
                    && replies[4].contains("\"completed_flows\":1"),
                "{engine}: {}",
                replies[4]
            );
        }
    }

    /// Error replies keep their v1 kinds and ordering.
    #[test]
    fn v1_error_kinds_are_preserved() {
        let replies = run(concat!(
            "not json\n",
            r#"{"cmd":"warp"}"#,
            "\n",
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
            r#"{"cmd":"teleport"}"#,
            "\n",
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        ));
        assert_eq!(replies.len(), 6, "{replies:?}");
        let kind = |r: &str, k: &str| {
            assert!(
                r.starts_with(&format!("{{\"ok\":false,\"kind\":\"{k}\"")),
                "expected kind {k:?}: {r}"
            );
        };
        kind(&replies[0], "parse");
        kind(&replies[1], "state");
        assert!(replies[2].starts_with("{\"ok\":true"), "{}", replies[2]);
        kind(&replies[3], "unknown_cmd");
        kind(&replies[4], "state"); // double open
        assert!(replies[5].starts_with("{\"ok\":true"), "{}", replies[5]);
    }
}
