//! Built-in named decks the daemon serves, plus the raw-SPICE request body.
//!
//! The JSON wire format refers to circuits by deck name and to
//! nodes/devices by their labels; this module owns the name → [`Circuit`]
//! mapping. Named decks are embedded SPICE text (circuit and `.sigma` cards
//! only — the JSON request supplies the analysis, metrics and scenarios)
//! elaborated through [`tranvar::netlist`], the same frontend raw decks go
//! through. They are deliberately small driven testbenches with annotated
//! mismatch so every request exercises the paper's full PSS → LPTV →
//! report pipeline.
//!
//! A `POST /analyze` body with `Content-Type: text/x-spice` bypasses the
//! name lookup entirely: [`from_spice`] elaborates the body into the same
//! [`AnalyzeRequest`] the JSON path produces, so a raw deck and its
//! equivalent JSON request render the same per-scenario reports. Spice requests are cached under a
//! content-addressed name ([`spice_name`]), so re-posting the same deck
//! text hits the solve cache.

use crate::wire::{AnalyzeRequest, WireError};
use tranvar::circuit::Circuit;
use tranvar::netlist::{self, Analysis};
use tranvar::pss::PssOptions;
use tranvar::TranvarError;

/// The deck names [`build`] accepts.
pub const DECKS: &[&str] = &["divider", "rc-lowpass"];

/// Builds a named deck, or `None` for an unknown name.
pub fn build(name: &str) -> Option<Circuit> {
    let source = match name {
        "divider" => DIVIDER,
        "rc-lowpass" => RC_LOWPASS,
        _ => return None,
    };
    // The embedded decks are fixed text; the unit tests pin that each one
    // elaborates.
    netlist::parse_and_elaborate(source).ok().map(|e| e.circuit)
}

/// A 2 V resistive divider with mismatch on both resistors: the workspace's
/// canonical σ(vout) example (σ = |∂vout/∂R|·σ_R per resistor, RSS'd).
const DIVIDER: &str = "divider\n\
    V1 a 0 2.0\n\
    R1 a b 1e3\n\
    R2 b 0 1e3\n\
    C1 b 0 1p\n\
    .sigma r R* sigma=10.0\n\
    .end\n";

/// A 1 V RC low-pass with mismatch on the series resistor.
const RC_LOWPASS: &str = "rc-lowpass\n\
    V1 in 0 1.0\n\
    R1 in out 1e3\n\
    C1 out 0 1n\n\
    .sigma r R1 sigma=5.0\n\
    .end\n";

// ── Raw SPICE request bodies ──

/// FNV-1a over the deck text; the content-addressed identity of a raw
/// SPICE request. Byte-identical decks share solve-cache entries, any
/// edit (even whitespace) gets a fresh key — exactly the granularity the
/// cache digest needs, since every solve input is in the text.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The deck name a raw SPICE body is served (and cached) under.
pub fn spice_name(source: &str) -> String {
    format!("spice:{:016x}", fnv64(source.as_bytes()))
}

/// A deck that parsed cleanly but asks for something the daemon cannot
/// serve (no driven `.pss`, no `.measure`): unprocessable, like the
/// `netlist.*` elaboration failures it sits alongside.
fn unservable(message: String) -> WireError {
    WireError {
        code: "serve.unservable-deck".into(),
        http: 422,
        message,
    }
}

/// Parses a raw SPICE deck (`Content-Type: text/x-spice`) into the same
/// [`AnalyzeRequest`] the JSON path produces.
///
/// The deck must carry a driven `.pss <period>` card (the daemon's solve
/// pipeline is the driven-PSS one) and at least one `.measure`; scenarios
/// come from its `.sweep` cards (a deck without sweeps runs the single
/// `nominal` scenario), `retry`/`deadline_ms` from `.option`.
///
/// # Errors
///
/// Parse and elaboration failures surface the typed, spanned `netlist.*`
/// codes at their mapped 422; decks without a servable analysis get
/// `serve.unservable-deck` (422).
pub fn from_spice(source: &str) -> Result<AnalyzeRequest, WireError> {
    let e = netlist::parse_and_elaborate(source)
        .map_err(|err| WireError::from(TranvarError::from(err)))?;
    let Some(analysis) = e.analysis else {
        return Err(unservable(
            "deck has no analysis card; the daemon needs a driven `.pss <period>`".into(),
        ));
    };
    let Analysis::PssDriven {
        period,
        n_steps,
        warmup_cycles,
        tol,
        step_limit,
    } = analysis
    else {
        return Err(unservable(
            "only driven `.pss <period>` decks are servable (`.tran` and `.pss osc` are not)"
                .into(),
        ));
    };
    if e.metrics.is_empty() {
        return Err(unservable(
            "deck has no `.measure` cards; nothing to report".into(),
        ));
    }
    Ok(AnalyzeRequest {
        deck: spice_name(source),
        circuit: e.circuit,
        period,
        n_steps: n_steps.unwrap_or_else(|| PssOptions::default().n_steps),
        warmup_cycles,
        tol,
        step_limit,
        retry: e.retry,
        deadline_ms: e.deadline_ms,
        metrics: e.metrics,
        scenarios: e.scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_deck_builds_with_mismatch_annotations() {
        for name in DECKS {
            let ckt = build(name).expect("listed deck must build");
            assert!(
                !ckt.mismatch_params().is_empty(),
                "deck {name} has no mismatch annotations"
            );
        }
        assert!(build("nope").is_none());
    }

    const DRIVEN: &str = "served divider\n\
        V1 a 0 2.0\n\
        R1 a b 1e3\n\
        R2 b 0 1e3\n\
        C1 b 0 1p\n\
        .sigma r R* sigma=10.0\n\
        .pss 1u steps=16 warmup=1\n\
        .measure vout avg b\n\
        .end\n";

    #[test]
    fn spice_body_becomes_a_full_request() {
        let req = from_spice(DRIVEN).unwrap();
        assert_eq!(req.deck, spice_name(DRIVEN));
        assert!(req.deck.starts_with("spice:"));
        assert_eq!(req.period, 1e-6);
        assert_eq!(req.n_steps, 16);
        assert_eq!(req.warmup_cycles, Some(1));
        assert_eq!(req.metrics.len(), 1);
        assert_eq!(req.scenarios.len(), 1); // no .sweep → nominal only
        assert!(!req.circuit.mismatch_params().is_empty());
        // Content-addressing: any text edit changes the cache identity.
        assert_ne!(spice_name(DRIVEN), spice_name(&DRIVEN.replace("1p", "2p")));
    }

    #[test]
    fn elaboration_failures_surface_spanned_netlist_codes() {
        let err = from_spice(&DRIVEN.replace("1e3", "'r0'")).unwrap_err();
        assert_eq!(err.http, 422);
        assert_eq!(err.code, "netlist.undefined-param");
        assert!(err.message.contains("line 3"), "{}", err.message);
    }

    #[test]
    fn unservable_decks_get_a_typed_422() {
        for (deck, why) in [
            (
                DRIVEN.replace(".pss 1u steps=16 warmup=1\n", ""),
                "no analysis",
            ),
            (DRIVEN.replace(".measure vout avg b\n", ""), "no measure"),
        ] {
            let err = from_spice(&deck).unwrap_err();
            assert_eq!(err.code, "serve.unservable-deck", "{why}");
            assert_eq!(err.http, 422, "{why}");
        }
    }
}
