//! The thirteen bulletin-board interactions, in both implementation
//! styles. Explicit-SQL and entity-bean variants live side by side in each
//! handler (the application is small enough that splitting modules, as the
//! bookstore and auction crates do, would only add indirection).

use crate::app::{BulletinBoard, Interaction};
use crate::populate::BASE_DATE;
use dynamid_core::{AppError, AppResult, LogicStyle, RequestCtx, SessionData, StaticAsset};
use dynamid_sim::SimRng;
use dynamid_sqldb::Value;

/// Dispatches one interaction.
pub fn handle(
    app: &BulletinBoard,
    id: usize,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    use Interaction as I;
    match id {
        x if x == I::StoriesOfTheDay as usize => stories_of_the_day(ctx),
        x if x == I::BrowseCategories as usize => browse_categories(ctx),
        x if x == I::BrowseStoriesByCategory as usize => by_category(app, ctx, session, rng),
        x if x == I::OlderStories as usize => older_stories(ctx, rng),
        x if x == I::ViewStory as usize => view_story(app, ctx, session, rng),
        x if x == I::AuthorInfo as usize => author_info(app, ctx, rng),
        x if x == I::Search as usize => search(ctx, rng),
        x if x == I::SubmitStoryForm as usize => submit_form(app, ctx, session, rng),
        x if x == I::StoreStory as usize => store_story(app, ctx, session, rng),
        x if x == I::PostCommentForm as usize => comment_form(app, ctx, session, rng),
        x if x == I::StoreComment as usize => store_comment(app, ctx, session, rng),
        x if x == I::ModerateComment as usize => moderate(app, ctx, session, rng),
        x if x == I::ViewUserComments as usize => user_comments(app, ctx, rng),
        other => Err(AppError::Logic(format!("unknown interaction {other}"))),
    }
}

fn header(ctx: &mut RequestCtx<'_>, title: &str) {
    ctx.emit(&format!("<html><head><title>{title}</title></head><body>"));
    ctx.emit_bytes(1_500);
    ctx.embed_asset(StaticAsset::button());
    ctx.embed_asset(StaticAsset::button());
}

fn footer(ctx: &mut RequestCtx<'_>) {
    ctx.emit_bytes(500);
    ctx.emit("</body></html>");
}

fn login(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<i64> {
    if let Some(id) = session.int("user_id") {
        return Ok(id);
    }
    let nick = app.random_nickname(rng);
    let id = match ctx.style() {
        LogicStyle::ExplicitSql { .. } => ctx
            .query("SELECT id, password FROM users WHERE nickname = ?", &[Value::str(&nick)])?
            .rows
            .first()
            .and_then(|r| r[0].as_int()),
        LogicStyle::EntityBean => ctx.facade("UserSession.login", |em| {
            let pks = em.find_pks_where("users", "nickname", Value::str(&nick))?;
            Ok(pks.into_iter().next().and_then(|pk| pk.as_int()))
        })?,
    }
    .ok_or_else(|| AppError::Logic(format!("no user '{nick}'")))?;
    session.set_int("user_id", id);
    Ok(id)
}

/// Emits a story listing and remembers the first story as the session
/// focus.
fn emit_story_rows(
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rows: &[(Value, Value, Value)],
) {
    if let Some((id, ..)) = rows.first() {
        if let Some(id) = id.as_int() {
            session.set_int("story_id", id);
        }
    }
    for (id, title, n) in rows {
        ctx.emit_bytes(160);
        ctx.emit(&format!(
            "<tr><td><a href=\"story?id={id}\">{title}</a> ({n} comments)</td></tr>"
        ));
    }
}

fn list_stories_sql(
    ctx: &mut RequestCtx<'_>,
    where_clause: &str,
    params: &[Value],
) -> AppResult<Vec<(Value, Value, Value)>> {
    let r = ctx.query(
        &format!(
            "SELECT id, title, nb_comments FROM stories {where_clause} \
             ORDER BY date DESC LIMIT 10"
        ),
        params,
    )?;
    Ok(r.rows.into_iter().map(|row| (row[0].clone(), row[1].clone(), row[2].clone())).collect())
}

fn list_stories_ejb(
    ctx: &mut RequestCtx<'_>,
    tail: &str,
    params: &[Value],
) -> AppResult<Vec<(Value, Value, Value)>> {
    let params = params.to_vec();
    let tail = format!("{tail} ORDER BY date DESC LIMIT 10");
    ctx.facade("StorySession.list", move |em| {
        let pks = em.find_pks_query_tail("stories", &tail, &params)?;
        let mut out = Vec::new();
        for pk in pks {
            if let Some(h) = em.find("stories", pk.clone())? {
                out.push((pk, em.get(h, "title")?, em.get(h, "nb_comments")?));
            }
        }
        Ok(out)
    })
}

fn stories_of_the_day(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    header(ctx, "Stories of the Day");
    let mut scratch = SessionData::new(u64::MAX);
    let rows = match ctx.style() {
        LogicStyle::ExplicitSql { .. } => list_stories_sql(ctx, "", &[])?,
        LogicStyle::EntityBean => list_stories_ejb(ctx, "", &[])?,
    };
    emit_story_rows(ctx, &mut scratch, &rows);
    footer(ctx);
    Ok(())
}

fn browse_categories(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    header(ctx, "Sections");
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            let r = ctx.query("SELECT id, name FROM categories ORDER BY id", &[])?;
            for row in &r.rows {
                ctx.emit(&format!("<a>{}</a><br>", row[1]));
            }
        }
        LogicStyle::EntityBean => {
            let names = ctx.facade("CategorySession.list", |em| {
                let pks = em.find_pks_query_tail("categories", "ORDER BY id", &[])?;
                let mut names = Vec::new();
                for pk in pks {
                    if let Some(h) = em.find("categories", pk)? {
                        names.push(em.get(h, "name")?);
                    }
                }
                Ok(names)
            })?;
            for n in names {
                ctx.emit(&format!("<a>{n}</a><br>"));
            }
        }
    }
    footer(ctx);
    Ok(())
}

fn by_category(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    header(ctx, "Stories in Section");
    let cat = app.random_category(rng);
    let rows = match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            list_stories_sql(ctx, "WHERE category = ?", &[Value::Int(cat)])?
        }
        LogicStyle::EntityBean => list_stories_ejb(ctx, "WHERE category = ?", &[Value::Int(cat)])?,
    };
    emit_story_rows(ctx, session, &rows);
    footer(ctx);
    Ok(())
}

fn older_stories(ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    header(ctx, "Older Stories");
    let day = BASE_DATE - rng.uniform_i64(7, 60) * crate::populate::DAY;
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            let r = ctx.query(
                "SELECT id, title FROM old_stories WHERE date > ? ORDER BY date DESC LIMIT 10",
                &[Value::Int(day)],
            )?;
            for row in &r.rows {
                ctx.emit_bytes(140);
                ctx.emit(&format!("<tr><td>{}</td></tr>", row[1]));
            }
        }
        LogicStyle::EntityBean => {
            let titles = ctx.facade("StorySession.older", |em| {
                let pks = em.find_pks_query_tail(
                    "old_stories",
                    "WHERE date > ? ORDER BY date DESC LIMIT 10",
                    &[Value::Int(day)],
                )?;
                let mut titles = Vec::new();
                for pk in pks {
                    if let Some(h) = em.find("old_stories", pk)? {
                        titles.push(em.get(h, "title")?);
                    }
                }
                Ok(titles)
            })?;
            for t in titles {
                ctx.emit_bytes(140);
                ctx.emit(&format!("<tr><td>{t}</td></tr>"));
            }
        }
    }
    footer(ctx);
    Ok(())
}

fn view_story(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    header(ctx, "Story");
    let story = session.int("story_id").unwrap_or_else(|| app.random_story(rng));
    session.set_int("story_id", story);
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            let s = ctx.query(
                "SELECT s.title, s.body, s.date, u.nickname FROM stories s \
                 JOIN users u ON s.author = u.id WHERE s.id = ?",
                &[Value::Int(story)],
            )?;
            if let Some(row) = s.rows.first() {
                ctx.emit(&format!("<h2>{}</h2><p>by {}</p><p>{}</p>", row[0], row[3], row[1]));
            }
            let c = ctx.query(
                "SELECT c.subject, c.body, c.rating, u.nickname FROM comments c \
                 JOIN users u ON c.author = u.id \
                 WHERE c.story_id = ? ORDER BY c.date DESC LIMIT 25",
                &[Value::Int(story)],
            )?;
            for row in &c.rows {
                ctx.emit_bytes(170);
                ctx.emit(&format!("<p>{} — {}</p>", row[3], row[0]));
            }
        }
        LogicStyle::EntityBean => {
            let (head, comments) = ctx.facade("StorySession.view", |em| {
                let head = match em.find("stories", Value::Int(story))? {
                    Some(h) => {
                        let author_pk = em.get(h, "author")?;
                        let by = match em.find("users", author_pk)? {
                            Some(u) => em.get(u, "nickname")?.to_string(),
                            None => "?".into(),
                        };
                        Some((em.get(h, "title")?, em.get(h, "body")?, by))
                    }
                    None => None,
                };
                let pks = em.find_pks_ordered(
                    "comments",
                    "story_id",
                    Value::Int(story),
                    "date",
                    true,
                    25,
                )?;
                let mut comments = Vec::new();
                for pk in pks {
                    if let Some(c) = em.find("comments", pk)? {
                        let author_pk = em.get(c, "author")?;
                        let by = match em.find("users", author_pk)? {
                            Some(u) => em.get(u, "nickname")?.to_string(),
                            None => "?".into(),
                        };
                        comments.push((by, em.get(c, "subject")?));
                    }
                }
                Ok((head, comments))
            })?;
            if let Some((title, body, by)) = head {
                ctx.emit(&format!("<h2>{title}</h2><p>by {by}</p><p>{body}</p>"));
            }
            for (by, subject) in comments {
                ctx.emit_bytes(170);
                ctx.emit(&format!("<p>{by} — {subject}</p>"));
            }
        }
    }
    footer(ctx);
    Ok(())
}

fn author_info(app: &BulletinBoard, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    header(ctx, "Author");
    let user = app.random_user(rng);
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            let r = ctx.query(
                "SELECT nickname, karma, creation_date FROM users WHERE id = ?",
                &[Value::Int(user)],
            )?;
            if let Some(row) = r.rows.first() {
                ctx.emit(&format!("<h2>{} (karma {})</h2>", row[0], row[1]));
            }
        }
        LogicStyle::EntityBean => {
            let head =
                ctx.facade("UserSession.info", |em| match em.find("users", Value::Int(user))? {
                    Some(h) => Ok(Some(format!(
                        "{} (karma {})",
                        em.get(h, "nickname")?,
                        em.get(h, "karma")?
                    ))),
                    None => Ok(None),
                })?;
            if let Some(h) = head {
                ctx.emit(&format!("<h2>{h}</h2>"));
            }
        }
    }
    footer(ctx);
    Ok(())
}

fn search(ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    header(ctx, "Search");
    let token = format!("%{}%", rng.ascii_string(2));
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            let r = ctx.query(
                "SELECT id, title FROM stories WHERE title LIKE ? LIMIT 10",
                &[Value::str(&token)],
            )?;
            for row in &r.rows {
                ctx.emit_bytes(140);
                ctx.emit(&format!("<tr><td>{}</td></tr>", row[1]));
            }
        }
        LogicStyle::EntityBean => {
            let titles = ctx.facade("StorySession.search", |em| {
                let pks = em.find_pks_query_tail(
                    "stories",
                    "WHERE title LIKE ? LIMIT 10",
                    &[Value::str(&token)],
                )?;
                let mut out = Vec::new();
                for pk in pks {
                    if let Some(h) = em.find("stories", pk)? {
                        out.push(em.get(h, "title")?);
                    }
                }
                Ok(out)
            })?;
            for t in titles {
                ctx.emit_bytes(140);
                ctx.emit(&format!("<tr><td>{t}</td></tr>"));
            }
        }
    }
    footer(ctx);
    Ok(())
}

fn submit_form(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    header(ctx, "Submit Story");
    let uid = login(app, ctx, session, rng)?;
    reverify(ctx, uid)?;
    ctx.emit("<form><input name=\"title\"><textarea name=\"body\"></textarea></form>");
    footer(ctx);
    Ok(())
}

/// HTTP is stateless: form pages re-verify the credentials on every
/// request, as the real implementations do.
fn reverify(ctx: &mut RequestCtx<'_>, uid: i64) -> AppResult<()> {
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            ctx.query("SELECT password FROM users WHERE id = ?", &[Value::Int(uid)])?;
        }
        LogicStyle::EntityBean => {
            ctx.facade("UserSession.verify", |em| {
                if let Some(h) = em.find("users", Value::Int(uid))? {
                    em.get(h, "password")?;
                }
                Ok(())
            })?;
        }
    }
    Ok(())
}

fn store_story(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    header(ctx, "Store Story");
    let uid = login(app, ctx, session, rng)?;
    let cat = app.random_category(rng);
    let title = format!("STORY {}", rng.ascii_string(16));
    let body = rng.ascii_string(200);
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            let r = ctx.query(
                "INSERT INTO stories (id, title, body, author, category, date, \
                 nb_comments, rating) VALUES (NULL, ?, ?, ?, ?, ?, 0, 0)",
                &[
                    Value::str(&title),
                    Value::str(&body),
                    Value::Int(uid),
                    Value::Int(cat),
                    Value::Int(BASE_DATE),
                ],
            )?;
            if let Some(id) = r.last_insert_id {
                session.set_int("story_id", id);
            }
        }
        LogicStyle::EntityBean => {
            let pk = ctx.facade("StorySession.submit", |em| {
                em.create(
                    "stories",
                    &[
                        ("id", Value::Null),
                        ("title", Value::str(&title)),
                        ("body", Value::str(&body)),
                        ("author", Value::Int(uid)),
                        ("category", Value::Int(cat)),
                        ("date", Value::Int(BASE_DATE)),
                        ("nb_comments", Value::Int(0)),
                        ("rating", Value::Int(0)),
                    ],
                )
            })?;
            if let Some(id) = pk.as_int() {
                session.set_int("story_id", id);
            }
        }
    }
    ctx.emit("<p>Story submitted.</p>");
    footer(ctx);
    Ok(())
}

fn comment_form(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    header(ctx, "Post Comment");
    let uid = login(app, ctx, session, rng)?;
    reverify(ctx, uid)?;
    let story = session.int("story_id").unwrap_or_else(|| app.random_story(rng));
    session.set_int("story_id", story);
    ctx.emit(&format!("<form><input type=\"hidden\" name=\"story\" value=\"{story}\"></form>"));
    footer(ctx);
    Ok(())
}

fn store_comment(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    header(ctx, "Store Comment");
    let uid = login(app, ctx, session, rng)?;
    let story = session.int("story_id").unwrap_or_else(|| app.random_story(rng));
    let subject = format!("RE {}", rng.ascii_string(10));
    let body = rng.ascii_string(80);
    match ctx.style() {
        LogicStyle::ExplicitSql { sync } => {
            if sync {
                ctx.app_lock("story", story as u64);
            }
            ctx.query(
                "INSERT INTO comments (id, story_id, parent_id, author, date, subject, \
                 body, rating) VALUES (NULL, ?, 0, ?, ?, ?, ?, 0)",
                &[
                    Value::Int(story),
                    Value::Int(uid),
                    Value::Int(BASE_DATE),
                    Value::str(&subject),
                    Value::str(&body),
                ],
            )?;
            ctx.query(
                "UPDATE stories SET nb_comments = nb_comments + 1 WHERE id = ?",
                &[Value::Int(story)],
            )?;
            if sync {
                ctx.app_unlock("story", story as u64);
            }
        }
        LogicStyle::EntityBean => {
            ctx.app_lock("story", story as u64);
            let result = ctx.facade("CommentSession.store", |em| {
                em.create(
                    "comments",
                    &[
                        ("id", Value::Null),
                        ("story_id", Value::Int(story)),
                        ("parent_id", Value::Int(0)),
                        ("author", Value::Int(uid)),
                        ("date", Value::Int(BASE_DATE)),
                        ("subject", Value::str(&subject)),
                        ("body", Value::str(&body)),
                        ("rating", Value::Int(0)),
                    ],
                )?;
                if let Some(h) = em.find("stories", Value::Int(story))? {
                    let n = em.get(h, "nb_comments")?.as_int().unwrap_or(0);
                    em.set(h, "nb_comments", Value::Int(n + 1))?;
                }
                Ok(())
            });
            ctx.app_unlock("story", story as u64);
            result?;
        }
    }
    ctx.emit("<p>Comment posted.</p>");
    footer(ctx);
    Ok(())
}

fn moderate(
    app: &BulletinBoard,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    header(ctx, "Moderate");
    login(app, ctx, session, rng)?;
    let story = session.int("story_id").unwrap_or_else(|| app.random_story(rng));
    let delta = if rng.chance(0.7) { 1 } else { -1 };
    match ctx.style() {
        LogicStyle::ExplicitSql { sync } => {
            // Pick the latest comment of the focused story.
            let c = ctx.query(
                "SELECT id, author FROM comments WHERE story_id = ? ORDER BY date DESC LIMIT 1",
                &[Value::Int(story)],
            )?;
            if let Some(row) = c.rows.first() {
                let (cid, author) = (row[0].clone(), row[1].clone());
                if sync {
                    ctx.app_lock("user", author.as_int().unwrap_or(0) as u64);
                }
                ctx.query(
                    "UPDATE comments SET rating = rating + ? WHERE id = ?",
                    &[Value::Int(delta), cid],
                )?;
                ctx.query(
                    "UPDATE users SET karma = karma + ? WHERE id = ?",
                    &[Value::Int(delta), author.clone()],
                )?;
                if sync {
                    ctx.app_unlock("user", author.as_int().unwrap_or(0) as u64);
                }
            }
        }
        LogicStyle::EntityBean => {
            ctx.facade("ModerationSession.rate", |em| {
                let pks = em.find_pks_ordered(
                    "comments",
                    "story_id",
                    Value::Int(story),
                    "date",
                    true,
                    1,
                )?;
                if let Some(pk) = pks.into_iter().next() {
                    if let Some(c) = em.find("comments", pk)? {
                        let r = em.get(c, "rating")?.as_int().unwrap_or(0);
                        em.set(c, "rating", Value::Int(r + delta))?;
                        let author_pk = em.get(c, "author")?;
                        if let Some(u) = em.find("users", author_pk)? {
                            let k = em.get(u, "karma")?.as_int().unwrap_or(0);
                            em.set(u, "karma", Value::Int(k + delta))?;
                        }
                    }
                }
                Ok(())
            })?;
        }
    }
    ctx.emit("<p>Moderated.</p>");
    footer(ctx);
    Ok(())
}

fn user_comments(app: &BulletinBoard, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    header(ctx, "User Comments");
    let user = app.random_user(rng);
    match ctx.style() {
        LogicStyle::ExplicitSql { .. } => {
            let r = ctx.query(
                "SELECT subject, rating, date FROM comments WHERE author = ? \
                 ORDER BY date DESC LIMIT 20",
                &[Value::Int(user)],
            )?;
            for row in &r.rows {
                ctx.emit_bytes(120);
                ctx.emit(&format!("<tr><td>{} ({})</td></tr>", row[0], row[1]));
            }
        }
        LogicStyle::EntityBean => {
            let rows = ctx.facade("CommentSession.byUser", |em| {
                let pks =
                    em.find_pks_ordered("comments", "author", Value::Int(user), "date", true, 20)?;
                let mut out = Vec::new();
                for pk in pks {
                    if let Some(c) = em.find("comments", pk)? {
                        out.push((em.get(c, "subject")?, em.get(c, "rating")?));
                    }
                }
                Ok(out)
            })?;
            for (subject, rating) in rows {
                ctx.emit_bytes(120);
                ctx.emit(&format!("<tr><td>{subject} ({rating})</td></tr>"));
            }
        }
    }
    footer(ctx);
    Ok(())
}
