//! Synthetic population for the bulletin board (RUBBoS-scale defaults:
//! half a million users, ~200 live stories with deep comment threads, a
//! large archive).

use crate::schema::{create_schema, CATEGORY_COUNT};
use dynamid_sim::{SimRng, Zipf};
use dynamid_sqldb::{BulkLoad, Database, SqlResult, Value};

/// Reference epoch for synthetic dates (2001-09-09, epoch seconds).
pub const BASE_DATE: i64 = 1_000_000_000;
/// One day in epoch seconds.
pub const DAY: i64 = 86_400;

/// Population cardinalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BboardScale {
    /// Registered users.
    pub users: usize,
    /// Stories on the front sections.
    pub stories: usize,
    /// Archived stories.
    pub old_stories: usize,
    /// Average comments per live story.
    pub comments_per_story: usize,
}

impl BboardScale {
    /// RUBBoS-style sizing.
    pub fn paper() -> Self {
        BboardScale { users: 500_000, stories: 200, old_stories: 60_000, comments_per_story: 100 }
    }

    /// A small configuration for tests.
    pub fn small() -> Self {
        BboardScale { users: 1_000, stories: 40, old_stories: 300, comments_per_story: 12 }
    }

    /// Paper sizing scaled by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let p = Self::paper();
        let s = |n: usize| ((n as f64 * factor).round() as usize).max(10);
        BboardScale {
            users: s(p.users),
            stories: s(p.stories),
            old_stories: s(p.old_stories),
            comments_per_story: p.comments_per_story.min(s(p.comments_per_story)),
        }
    }
}

/// Builds and populates a bulletin-board database. Rows stream through one
/// [`Database::bulk_load`] scope, formatted strings going through
/// [`BulkLoad::text`]'s reused buffer; the denormalized comment counts are
/// refreshed through SQL once it has closed.
///
/// # Errors
///
/// Propagates schema or insertion failures.
pub fn build_db(scale: &BboardScale, seed: u64) -> SqlResult<Database> {
    let mut db = Database::new();
    create_schema(&mut db)?;
    let mut rng = SimRng::new(seed);
    let users = scale.users as i64;
    let story = |load: &mut BulkLoad<'_>, rng: &mut SimRng, live: bool| -> Vec<Value> {
        let age = if live { rng.uniform_i64(0, 6) } else { rng.uniform_i64(7, 400) };
        vec![
            Value::Null,
            load.text(format_args!("STORY {}", rng.ascii_string(16))),
            Value::from(rng.ascii_string(200)),
            Value::Int(rng.uniform_i64(1, users)),
            Value::Int(rng.uniform_i64(1, CATEGORY_COUNT as i64)),
            Value::Int(BASE_DATE - age * DAY),
            Value::Int(0),
            Value::Int(rng.uniform_i64(-1, 5)),
        ]
    };
    db.bulk_load(|load| {
        for i in 0..CATEGORY_COUNT {
            let row = vec![Value::Int(i as i64 + 1), load.text(format_args!("SECTION{i:02}"))];
            load.insert("categories", row)?;
        }
        let mut urng = rng.fork(1);
        let password = Value::str("pw");
        for i in 0..scale.users {
            let row = vec![
                Value::Null,
                load.text(format_args!("B{i}")),
                password.clone(),
                Value::Int(urng.uniform_i64(-10, 100)),
                Value::Int(BASE_DATE - urng.uniform_i64(0, 500) * DAY),
            ];
            load.insert("users", row)?;
        }
        let mut srng = rng.fork(2);
        for _ in 0..scale.stories {
            let row = story(load, &mut srng, true);
            load.insert("stories", row)?;
        }
        for _ in 0..scale.old_stories {
            let row = story(load, &mut srng, false);
            load.insert("old_stories", row)?;
        }
        let mut crng = rng.fork(3);
        let popularity = Zipf::new(scale.stories, 0.7);
        for _ in 0..scale.stories * scale.comments_per_story {
            let story_id = popularity.sample(&mut crng) as i64 + 1;
            let row = vec![
                Value::Null,
                Value::Int(story_id),
                Value::Int(0),
                Value::Int(crng.uniform_i64(1, users)),
                Value::Int(BASE_DATE - crng.uniform_i64(0, 6) * DAY),
                load.text(format_args!("RE {}", crng.ascii_string(10))),
                Value::from(crng.ascii_string(80)),
                Value::Int(crng.uniform_i64(-1, 5)),
            ];
            load.insert("comments", row)?;
        }
        Ok(())
    })?;
    refresh_comment_counts(&mut db)?;
    Ok(db)
}

/// Refreshes the denormalized per-story comment counts.
fn refresh_comment_counts(db: &mut Database) -> SqlResult<()> {
    let counts =
        db.execute("SELECT story_id, COUNT(*) AS n FROM comments GROUP BY story_id", &[])?;
    for row in counts.rows {
        db.execute(
            "UPDATE stories SET nb_comments = ? WHERE id = ?",
            &[row[1].clone(), row[0].clone()],
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuilds every table by replaying its live rows, in slot order,
    /// through `Table::insert` into a fresh table of the same schema, then
    /// re-runs the count refresh: its UPDATEs move each updated story to
    /// the end of its secondary-index entries, which a replay of the final
    /// rows alone would not.
    fn replayed(db: &Database) -> Database {
        let mut copy = Database::new();
        for name in db.table_names() {
            let table = db.table(name).unwrap();
            copy.create_table(table.schema().clone()).unwrap();
            let fresh = copy.table_mut(name).unwrap();
            for (_, row) in table.scan() {
                fresh.insert(row.to_vec()).unwrap();
            }
        }
        refresh_comment_counts(&mut copy).unwrap();
        copy
    }

    #[test]
    fn population_equals_a_per_row_replay() {
        for scale in [BboardScale::small(), BboardScale::scaled(0.002), BboardScale::scaled(0.05)] {
            let db = build_db(&scale, 11).unwrap();
            let replay = replayed(&db);
            for name in db.table_names() {
                let (built, replayed) = (db.table(name).unwrap(), replay.table(name).unwrap());
                assert!(built == replayed, "{name} differs from its replay at {scale:?}");
            }
            assert!(db.same_data(&replay));
        }
    }

    #[test]
    fn small_population() {
        let scale = BboardScale::small();
        let mut db = build_db(&scale, 1).unwrap();
        assert_eq!(db.table("users").unwrap().row_count(), scale.users);
        assert_eq!(db.table("stories").unwrap().row_count(), scale.stories);
        assert_eq!(db.table("old_stories").unwrap().row_count(), scale.old_stories);
        assert_eq!(
            db.table("comments").unwrap().row_count(),
            scale.stories * scale.comments_per_story
        );
        // Denormalized counts match.
        let r = db.execute("SELECT SUM(nb_comments) FROM stories", &[]).unwrap();
        assert_eq!(
            r.scalar().unwrap().as_int().unwrap(),
            (scale.stories * scale.comments_per_story) as i64
        );
    }

    #[test]
    fn scaled_clamps() {
        let s = BboardScale::scaled(0.001);
        assert!(s.users >= 10);
        assert!(s.stories >= 10);
    }
}
