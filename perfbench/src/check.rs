//! The benchmark's independent result check: expected outputs computed in plain Rust
//! over the generated inputs, and a multiset comparison against the engine's rows.

use std::cmp::Ordering;

use decorr_common::{Row, Value};

use crate::data::{Order, Tpch};

/// `discount(totalprice, custkey)`: the customer category's discount fraction times
/// the order's total price.
pub fn discount(db: &Tpch, order: &Order) -> f64 {
    let customer = &db.customers[(order.custkey - 1) as usize];
    db.frac_discount[customer.category as usize] * order.totalprice
}

/// `service_level`: thresholds on a customer's order total (`None`: no orders).
pub fn service_level(total: Option<f64>) -> &'static str {
    match total {
        Some(t) if t > 1_000_000.0 => "Platinum",
        Some(t) if t > 500_000.0 => "Gold",
        _ => "Regular",
    }
}

/// Every customer's order total, indexed by `custkey - 1`.
pub fn order_totals(db: &Tpch) -> Vec<Option<f64>> {
    let mut totals = vec![None; db.customers.len()];
    for o in &db.orders {
        let slot = &mut totals[(o.custkey - 1) as usize];
        *slot = Some(slot.unwrap_or(0.0) + o.totalprice);
    }
    totals
}

/// `category_part_count(c)`: the parts in category `c` and in all its ancestors.
pub fn category_part_counts(db: &Tpch) -> Vec<i64> {
    let mut direct = vec![0i64; db.categories as usize];
    for p in &db.parts {
        direct[p.category as usize] += 1;
    }
    (0..db.categories)
        .map(|c| direct[c as usize] + db.parent(c).map_or(0, |p| direct[p as usize]))
        .collect()
}

/// Values equal up to a relative float tolerance: a sum the engine adds up in
/// another order may differ in its last bits. Integers and floats compare by value.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (x, y) => match (x.as_float(), y.as_float()) {
            (Ok(x), Ok(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            _ => false,
        },
    }
}

fn row_order(a: &Row, b: &Row) -> Ordering {
    a.values
        .iter()
        .zip(&b.values)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// Checks that `actual` and `expected` hold the same multiset of rows.
pub fn same_rows(actual: &[Row], expected: &[Row]) -> Result<(), String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "{} rows, expected {}",
            actual.len(),
            expected.len()
        ));
    }
    let mut a: Vec<&Row> = actual.iter().collect();
    let mut e: Vec<&Row> = expected.iter().collect();
    a.sort_by(|x, y| row_order(x, y));
    e.sort_by(|x, y| row_order(x, y));
    for (x, y) in a.iter().zip(&e) {
        if x.len() != y.len()
            || !x
                .values
                .iter()
                .zip(&y.values)
                .all(|(p, q)| same_value(p, q))
        {
            return Err(format!("row {x:?}, expected {y:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, Size};

    fn row(values: Vec<Value>) -> Row {
        Row::new(values)
    }

    #[test]
    fn multiset_comparison_ignores_order_and_float_noise_only() {
        let a = vec![
            row(vec![Value::Int(2), Value::Float(0.1 + 0.2)]),
            row(vec![Value::Int(1), Value::str("Gold")]),
        ];
        let b = vec![
            row(vec![Value::Int(1), Value::str("Gold")]),
            row(vec![Value::Int(2), Value::Float(0.3)]),
        ];
        assert!(same_rows(&a, &b).is_ok());
        let c = vec![
            row(vec![Value::Int(1), Value::str("Gold")]),
            row(vec![Value::Int(2), Value::Float(0.31)]),
        ];
        assert!(same_rows(&a, &c).is_err());
        assert!(same_rows(&a, &b[..1]).is_err());
    }

    #[test]
    fn part_counts_include_the_parent_category() {
        let size = Size {
            customers: 4,
            orders_per_customer: 1,
            parts: 50,
            categories: 20,
            customer_categories: 3,
        };
        let db = generate(&size, 3);
        let counts = category_part_counts(&db);
        let direct = |c: i64| db.parts.iter().filter(|p| p.category == c).count() as i64;
        assert_eq!(counts[0], direct(0));
        assert_eq!(counts[5], direct(5) + direct(5 % db.roots));
        assert_eq!(service_level(None), "Regular");
        assert_eq!(service_level(Some(600_000.0)), "Gold");
    }
}
