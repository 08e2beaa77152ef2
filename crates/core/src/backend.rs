//! Which lower-level mapper: the one place `spr`, `ultrafast`, `sat` and
//! `portfolio` are spelled.
//!
//! Every surface (CLI flags, `/compile` JSON, the bench harness, the
//! fuzzer) names a mapper through [`BackendId`], and every compile takes
//! its mappers as `&dyn LowerLevelMapper` — [`BackendId::mapper`] builds a
//! default-configured one, and a caller that needs its own instance (the
//! CLI's SAT attempt log, the bench's time-budgeted SPR\*, the fuzzer's
//! tight SAT budget) passes that instead.

use panorama_mapper::{LowerLevelMapper, SatMapper, SprMapper, UltraFastMapper};

/// A selectable lower-level mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// SPR\*: schedule / place / route with PathFinder + annealing.
    Spr,
    /// Ultra-Fast: greedy abstract scheduler with a wiring budget.
    UltraFast,
    /// SAT: CNF modulo scheduling decided by the CDCL solver.
    Sat,
}

impl BackendId {
    /// The backends `--mapper portfolio` races, in reduction-key order.
    pub const PORTFOLIO: [BackendId; 3] = [BackendId::Spr, BackendId::UltraFast, BackendId::Sat];

    /// The CLI/request spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Spr => "spr",
            BackendId::UltraFast => "ultrafast",
            BackendId::Sat => "sat",
        }
    }

    /// Parses a CLI/request spelling.
    ///
    /// # Errors
    ///
    /// Returns ``unknown mapper `name` `` for anything else.
    pub fn parse(name: &str) -> Result<BackendId, String> {
        match name {
            "spr" => Ok(BackendId::Spr),
            "ultrafast" => Ok(BackendId::UltraFast),
            "sat" => Ok(BackendId::Sat),
            other => Err(format!("unknown mapper `{other}`")),
        }
    }

    /// Instantiates the backend's mapper with default settings.
    pub fn mapper(self) -> Box<dyn LowerLevelMapper> {
        match self {
            BackendId::Spr => Box::new(SprMapper::default()),
            BackendId::UltraFast => Box::new(UltraFastMapper::default()),
            BackendId::Sat => Box::new(SatMapper::default()),
        }
    }
}

/// What a request's `mapper` field selects: one backend, or the portfolio
/// race of [`BackendId::PORTFOLIO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapperChoice {
    /// A single backend.
    Backend(BackendId),
    /// Every [`BackendId::PORTFOLIO`] backend per candidate partition,
    /// under the shared best-II bound.
    Portfolio,
}

impl MapperChoice {
    /// Parses a backend spelling or `portfolio`.
    ///
    /// # Errors
    ///
    /// As for [`BackendId::parse`].
    pub fn parse(name: &str) -> Result<MapperChoice, String> {
        if name == "portfolio" {
            Ok(MapperChoice::Portfolio)
        } else {
            BackendId::parse(name).map(MapperChoice::Backend)
        }
    }

    /// The spelling [`parse`](MapperChoice::parse) accepts for this choice.
    pub fn name(self) -> &'static str {
        match self {
            MapperChoice::Backend(id) => id.name(),
            MapperChoice::Portfolio => "portfolio",
        }
    }

    /// The backends this choice runs, in reduction-key order.
    pub fn backends(&self) -> &[BackendId] {
        match self {
            MapperChoice::Backend(id) => std::slice::from_ref(id),
            MapperChoice::Portfolio => &BackendId::PORTFOLIO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_round_trip() {
        for name in ["spr", "ultrafast", "sat"] {
            let id = BackendId::parse(name).unwrap();
            assert_eq!(id.name(), name);
            let choice = MapperChoice::Backend(id);
            assert_eq!(MapperChoice::parse(choice.name()), Ok(choice));
            assert_eq!(choice.backends(), [id]);
        }
        let portfolio = MapperChoice::parse("portfolio").unwrap();
        assert_eq!(portfolio.name(), "portfolio");
        assert_eq!(portfolio.backends(), BackendId::PORTFOLIO);
        assert_eq!(
            BackendId::parse("portfolio").unwrap_err(),
            "unknown mapper `portfolio`"
        );
        assert_eq!(
            MapperChoice::parse("magic").unwrap_err(),
            "unknown mapper `magic`"
        );
    }
}
