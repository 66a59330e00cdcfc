//! Dimensional metric labels.
//!
//! A [`LabelSet`] is a small sorted `key=value` vector rendered once into a
//! canonical suffix (`{k="v",k2="v2"}`, keys sorted, no spaces) that is
//! appended to metric names. Carrying the labels inside the name keeps every
//! downstream consumer — [`crate::registry::Snapshot`] maps and binfmt
//! snapshot records — working unchanged: a labeled series is just another
//! (deterministically ordered) name, such as the `eval` engine's
//! `worker.busy_ns{worker="0"}`.

/// A sorted set of `key=value` labels with a canonical rendering.
///
/// Keys and values are sanitized at construction: characters that would
/// break the canonical `{k="v"}` grammar — braces, quotes, backslashes,
/// commas, `=`, whitespace — become `_`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LabelSet {
    pairs: Vec<(String, String)>,
    /// Cached canonical inner rendering: `k="v",k2="v2"` (empty when no labels).
    inner: String,
}

fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| {
            if c.is_ascii_graphic() && !matches!(c, '{' | '}' | '"' | '\\' | ',' | '=') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl LabelSet {
    /// The empty label set (qualifies names to themselves).
    pub fn empty() -> Self {
        LabelSet::default()
    }

    /// Builds a label set from `key=value` pairs; keys are sorted and a
    /// duplicate key keeps the last value given.
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Self {
        let mut sorted: Vec<(String, String)> = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            let k = sanitize(k);
            let v = sanitize(v);
            match sorted.binary_search_by(|(ek, _)| ek.as_str().cmp(k.as_str())) {
                Ok(i) => sorted[i].1 = v,
                Err(i) => sorted.insert(i, (k, v)),
            }
        }
        let mut set = LabelSet {
            pairs: sorted,
            inner: String::new(),
        };
        set.render();
        set
    }

    /// A single-label set; the common `link="<id>"` case.
    pub fn link(id: impl std::fmt::Display) -> Self {
        LabelSet::from_pairs(&[("link", &id.to_string())])
    }

    fn render(&mut self) {
        let mut out = String::new();
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        self.inner = out;
    }

    /// True when there are no labels.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Qualifies `base` with this label set: `base{k="v"}` (or `base`
    /// unchanged when empty).
    pub fn qualify(&self, base: &str) -> String {
        if self.pairs.is_empty() {
            base.to_string()
        } else {
            format!("{base}{{{}}}", self.inner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_sorted_and_deduped() {
        let set = LabelSet::from_pairs(&[("z", "1"), ("a", "2"), ("z", "3")]);
        assert_eq!(set.qualify("m"), "m{a=\"2\",z=\"3\"}");
    }

    #[test]
    fn qualify_renders_the_canonical_suffix() {
        let set = LabelSet::from_pairs(&[("link", "7"), ("band", "60")]);
        let name = set.qualify("quality.snr_loss_mdb");
        assert_eq!(name, "quality.snr_loss_mdb{band=\"60\",link=\"7\"}");
        assert_eq!(LabelSet::link(7).qualify("m"), "m{link=\"7\"}");
    }

    #[test]
    fn empty_set_is_identity() {
        let set = LabelSet::empty();
        assert!(set.is_empty());
        assert_eq!(set.qualify("a.b"), "a.b");
    }

    #[test]
    fn hostile_values_are_sanitized() {
        let set = LabelSet::from_pairs(&[("k", "a b\"c{d}e,f=g\\h")]);
        assert_eq!(set.qualify("m"), "m{k=\"a_b_c_d_e_f_g_h\"}");
    }
}
