//! Runtime configuration from the environment, mirroring the OpenMP
//! environment variables the paper manipulates (`OMP_NUM_THREADS`,
//! `OMP_PROC_BIND`).

use crate::bind::BindPolicy;

/// Resolved runtime configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Team size for parallel regions.
    pub nthreads: usize,
    /// Thread placement policy.
    pub bind: BindPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            nthreads: 1,
            bind: BindPolicy::default(),
        }
    }
}

impl RuntimeConfig {
    /// Read configuration from the environment:
    ///
    /// * `RVHPC_NUM_THREADS` — team size (default 1; this workspace's
    ///   kernels are deterministic for any team size).
    /// * `RVHPC_PROC_BIND` — `false` / `close` / `spread`.
    ///
    /// Invalid values fall back to the defaults rather than erroring; the
    /// benchmarks should run everywhere.
    pub fn from_env() -> Self {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Same as [`RuntimeConfig::from_env`] but with an injectable lookup,
    /// for deterministic tests.
    pub(crate) fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let nthreads = lookup("RVHPC_NUM_THREADS")
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1);
        let bind = lookup("RVHPC_PROC_BIND")
            .and_then(|v| BindPolicy::parse(v.trim()))
            .unwrap_or_default();
        Self { nthreads, bind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn defaults_when_unset() {
        let c = RuntimeConfig::from_lookup(env(&[]));
        assert_eq!(c.nthreads, 1);
        assert_eq!(c.bind, BindPolicy::Unbound);
    }

    #[test]
    fn reads_thread_count_and_bind() {
        let c = RuntimeConfig::from_lookup(env(&[
            ("RVHPC_NUM_THREADS", "8"),
            ("RVHPC_PROC_BIND", "spread"),
        ]));
        assert_eq!(c.nthreads, 8);
        assert_eq!(c.bind, BindPolicy::Spread);
    }

    #[test]
    fn invalid_values_fall_back() {
        let c = RuntimeConfig::from_lookup(env(&[
            ("RVHPC_NUM_THREADS", "zero"),
            ("RVHPC_PROC_BIND", "diagonal"),
        ]));
        assert_eq!(c.nthreads, 1);
        assert_eq!(c.bind, BindPolicy::Unbound);
    }

    #[test]
    fn zero_threads_rejected() {
        let c = RuntimeConfig::from_lookup(env(&[("RVHPC_NUM_THREADS", "0")]));
        assert_eq!(c.nthreads, 1);
    }

    #[test]
    fn whitespace_tolerated() {
        let c = RuntimeConfig::from_lookup(env(&[
            ("RVHPC_NUM_THREADS", " 4 "),
            ("RVHPC_PROC_BIND", " close "),
        ]));
        assert_eq!(c.nthreads, 4);
        assert_eq!(c.bind, BindPolicy::Close);
    }
}
