//! The one statement of every table's rows. Each row type lists its
//! fields once, with `row!`; the `figures --json` writer, the reader
//! of the pinned artifact, the `figures bench` tables and `bench-diff`'s
//! comparison are all walks over that list ([`Visit`]).

use acc_obs::json::Value;

/// What a field holds, given by its Rust type: text (`String`), a
/// number (`f64`), a count (`u64`, `usize`, `u32`: a non-negative
/// whole number) or a flag (`bool`).
pub trait Kind: Sized {
    fn to_json(&self) -> Value;
    /// `None` when `v` is not a value of this kind.
    fn from_json(v: &Value) -> Option<Self>;
    /// The value as a number; `None` for text.
    fn number(&self) -> Option<f64>;
}

impl Kind for String {
    fn to_json(&self) -> Value {
        Value::str(self.as_str())
    }

    fn from_json(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }

    fn number(&self) -> Option<f64> {
        None
    }
}

impl Kind for f64 {
    fn to_json(&self) -> Value {
        Value::num(*self)
    }

    fn from_json(v: &Value) -> Option<Self> {
        v.as_f64()
    }

    fn number(&self) -> Option<f64> {
        Some(*self)
    }
}

impl Kind for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn number(&self) -> Option<f64> {
        Some(f64::from(*self))
    }
}

macro_rules! count_kind {
    ($($t:ty),+) => {$(
        impl Kind for $t {
            fn to_json(&self) -> Value {
                Value::num(*self as f64)
            }

            fn from_json(v: &Value) -> Option<Self> {
                v.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as $t)
            }

            fn number(&self) -> Option<f64> {
                Some(*self as f64)
            }
        }
    )+};
}

count_kind!(u64, usize, u32);

/// A walk over a row's fields, in the order [`Row::fields`] names them.
pub trait Visit {
    fn field<K: Kind>(&mut self, name: &'static str, value: &mut K);
}

/// A table row: the section it is written under and its fields.
pub trait Row: Clone {
    const SECTION: &'static str;
    fn fields(&mut self, v: &mut impl Visit);
}

/// `row!(Type, "section", field, ...)` implements [`Row`]: each field's
/// JSON name is its Rust name, and adding a field to a table is one more
/// name here.
macro_rules! row {
    ($ty:ty, $section:literal, $($field:ident),+ $(,)?) => {
        impl $crate::row::Row for $ty {
            const SECTION: &'static str = $section;
            fn fields(&mut self, v: &mut impl $crate::row::Visit) {
                $(v.field(stringify!($field), &mut self.$field);)+
            }
        }
    };
}

/// Every field of `row`, in order, as it is written to JSON.
fn members<T: Row>(row: &T) -> Vec<(&'static str, Value)> {
    struct Write(Vec<(&'static str, Value)>);
    impl Visit for Write {
        fn field<K: Kind>(&mut self, name: &'static str, value: &mut K) {
            self.0.push((name, value.to_json()));
        }
    }
    let mut w = Write(Vec::new());
    row.clone().fields(&mut w);
    w.0
}

/// A section as `figures --json` and the pinned artifact write it: a
/// member of the document's top-level object.
pub fn section<T: Row>(rows: &[T]) -> (String, Value) {
    (T::SECTION.to_string(), Value::Arr(rows.iter().map(|r| Value::obj(members(r))).collect()))
}

/// Fills fields from one JSON object; the first field that is missing
/// or of another kind is the error, `{path}: bad `{name}``.
pub(crate) struct Read<'a> {
    pub obj: &'a Value,
    pub path: String,
    pub err: Option<String>,
}

impl Visit for Read<'_> {
    fn field<K: Kind>(&mut self, name: &'static str, value: &mut K) {
        if self.err.is_some() {
            return;
        }
        match self.obj.get(name).and_then(K::from_json) {
            Some(v) => *value = v,
            None => self.err = Some(format!("{}: bad `{name}`", self.path)),
        }
    }
}

/// Read one row from a JSON object that `path` names in errors.
pub(crate) fn read<T: Row + Default>(obj: &Value, path: String) -> Result<T, String> {
    let mut row = T::default();
    let mut r = Read { obj, path, err: None };
    row.fields(&mut r);
    r.err.map_or(Ok(row), Err)
}

/// A section as text: its name, then one line of `field=value` per row.
pub fn render<T: Row>(rows: &[T]) -> String {
    let mut out = format!("{}:\n", T::SECTION);
    for r in rows {
        let cells: Vec<String> =
            members(r).iter().map(|(name, v)| format!("{name}={}", v.to_string_compact())).collect();
        out += &format!("  {}\n", cells.join(" "));
    }
    out
}
