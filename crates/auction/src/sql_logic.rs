//! Explicit-SQL implementations of the 26 auction interactions — the code
//! path shared by the PHP and servlet architectures (identical queries,
//! §4.2).
//!
//! Unlike the bookstore, the auction site barely uses `LOCK TABLES`: bid,
//! buy-now, and comment stores are plain statements (each atomic under
//! MyISAM's implicit per-statement lock), matching the paper's observation
//! that the auction workload has no database lock contention and that the
//! `(sync)` servlet curves coincide with the plain ones. Only the `ids`
//! bookkeeping updates in the registration flows take an explicit lock,
//! which the `(sync)` configurations move into the container.

use crate::app::{Auction, Interaction};
use crate::populate::{BASE_DATE, DAY};
use dynamid_core::{AppError, AppResult, RequestCtx, SessionData, StaticAsset};
use dynamid_sim::SimRng;
use dynamid_sqldb::Value;

/// Items shown per search/browse page (RUBiS page size).
pub const PAGE_SIZE: u64 = 25;
/// Thumbnails embedded per listing page.
pub const LIST_THUMBNAILS: usize = 16;

/// Dispatches one interaction.
pub fn handle(
    app: &Auction,
    id: usize,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    use Interaction as I;
    match id {
        x if x == I::Home as usize => home(ctx),
        x if x == I::Register as usize => register(ctx),
        x if x == I::RegisterUser as usize => register_user(app, ctx, session, rng),
        x if x == I::Browse as usize => browse(ctx),
        x if x == I::BrowseCategories as usize => browse_categories(ctx),
        x if x == I::SearchItemsInCategory as usize => {
            search_items_in_category(app, ctx, session, rng)
        }
        x if x == I::BrowseRegions as usize => browse_regions(ctx),
        x if x == I::BrowseCategoriesInRegion as usize => {
            browse_categories_in_region(app, ctx, session, rng)
        }
        x if x == I::SearchItemsInRegion as usize => search_items_in_region(app, ctx, session, rng),
        x if x == I::ViewItem as usize => view_item(app, ctx, session, rng),
        x if x == I::ViewUserInfo as usize => view_user_info(app, ctx, rng),
        x if x == I::ViewBidHistory as usize => view_bid_history(app, ctx, session, rng),
        x if x == I::BuyNowAuth as usize => auth_form(app, ctx, session, rng, "BuyNow"),
        x if x == I::BuyNow as usize => buy_now(app, ctx, session, rng),
        x if x == I::StoreBuyNow as usize => store_buy_now(app, ctx, session, rng),
        x if x == I::PutBidAuth as usize => auth_form(app, ctx, session, rng, "PutBid"),
        x if x == I::PutBid as usize => put_bid(app, ctx, session, rng),
        x if x == I::StoreBid as usize => store_bid(app, ctx, session, rng),
        x if x == I::PutCommentAuth as usize => auth_form(app, ctx, session, rng, "PutComment"),
        x if x == I::PutComment as usize => put_comment(app, ctx, session, rng),
        x if x == I::StoreComment as usize => store_comment(app, ctx, session, rng),
        x if x == I::Sell as usize => sell(ctx),
        x if x == I::SelectCategoryToSellItem as usize => select_category_to_sell(ctx),
        x if x == I::SellItemForm as usize => sell_item_form(app, ctx, session, rng),
        x if x == I::RegisterItem as usize => register_item(app, ctx, session, rng),
        x if x == I::AboutMe as usize => about_me(app, ctx, session, rng),
        other => Err(AppError::Logic(format!("unknown interaction {other}"))),
    }
}

fn page_header(ctx: &mut RequestCtx<'_>, title: &str) {
    ctx.emit(&format!("<html><head><title>{title}</title></head><body><h1>{title}</h1>"));
    ctx.emit_bytes(1_800); // eBay-style chrome: nav tables, search box
    ctx.embed_asset(StaticAsset::button());
    ctx.embed_asset(StaticAsset::button());
    ctx.embed_asset(StaticAsset::button());
}

fn page_footer(ctx: &mut RequestCtx<'_>) {
    ctx.emit_bytes(600);
    ctx.emit("</body></html>");
}

/// Authenticates the session's user (random registered user on first use).
fn login(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<i64> {
    if let Some(id) = session.int("user_id") {
        return Ok(id);
    }
    let nick = app.random_nickname(rng);
    let r = ctx
        .query("SELECT id, password, rating FROM users WHERE nickname = ?", &[Value::str(&nick)])?;
    let id = r
        .rows
        .first()
        .and_then(|row| row[0].as_int())
        .ok_or_else(|| AppError::Logic(format!("no user '{nick}'")))?;
    session.set_int("user_id", id);
    Ok(id)
}

/// The item the session is focused on, defaulting to a fresh random one.
fn focus_item(app: &Auction, session: &mut SessionData, rng: &mut SimRng) -> i64 {
    session.int("item_id").unwrap_or_else(|| app.random_item(rng))
}

fn emit_categories(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    let r = ctx.query("SELECT id, name FROM categories ORDER BY id", &[])?;
    for row in &r.rows {
        ctx.emit(&format!("<a href=\"cat?id={}\">{}</a><br>", row[0], row[1]));
    }
    Ok(())
}

fn emit_regions(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    let r = ctx.query("SELECT id, name FROM regions ORDER BY id", &[])?;
    for row in &r.rows {
        ctx.emit(&format!("<a href=\"reg?id={}\">{}</a><br>", row[0], row[1]));
    }
    Ok(())
}

fn emit_item_list(ctx: &mut RequestCtx<'_>, rows: &[Vec<Value>]) {
    for row in rows {
        // id, name, max_bid, nb_of_bids, end_date
        ctx.emit_bytes(220);
        ctx.emit(&format!(
            "<tr><td><a href=\"item?id={}\">{}</a></td><td>{}</td><td>{}</td></tr>",
            row[0], row[1], row[2], row[3]
        ));
    }
    for _ in 0..LIST_THUMBNAILS.min(rows.len()) {
        ctx.embed_asset(StaticAsset::thumbnail());
    }
}

fn home(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Auction Home");
    emit_categories(ctx)?;
    ctx.embed_asset(StaticAsset::full_image()); // front-page banner
    page_footer(ctx);
    Ok(())
}

fn register(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Register");
    emit_regions(ctx)?;
    ctx.emit("<form action=\"register\"><input name=\"nickname\"></form>");
    page_footer(ctx);
    Ok(())
}

fn register_user(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Register User");
    let nick = format!("NU{}_{}", session.client(), rng.uniform_u64(0, u32::MAX as u64));
    // Uniqueness check, as RUBiS does.
    let dup = ctx.query("SELECT id FROM users WHERE nickname = ?", &[Value::str(&nick)])?;
    if !dup.is_empty() {
        ctx.emit("<p>Nickname taken.</p>");
        page_footer(ctx);
        return Ok(());
    }
    let region = app.random_region(rng);
    let r = ctx.query(
        "INSERT INTO users (id, firstname, lastname, nickname, password, email, \
         rating, balance, creation_date, region) VALUES (NULL, ?, ?, ?, ?, ?, 0, 0.0, ?, ?)",
        &[
            Value::str("NEW"),
            Value::str("USER"),
            Value::str(&nick),
            Value::str("pw"),
            Value::str(format!("{nick}@example.com")),
            Value::Int(BASE_DATE),
            Value::Int(region),
        ],
    )?;
    if ctx.sync_mode() {
        ctx.app_lock("ids", 0);
        ctx.query("UPDATE ids SET value = value + 1 WHERE table_name = 'users'", &[])?;
        ctx.app_unlock("ids", 0);
    } else {
        ctx.query("LOCK TABLES ids WRITE", &[])?;
        ctx.query("UPDATE ids SET value = value + 1 WHERE table_name = 'users'", &[])?;
        ctx.query("UNLOCK TABLES", &[])?;
    }
    if let Some(id) = r.last_insert_id {
        session.set_int("user_id", id);
        ctx.emit(&format!("<p>Welcome {nick} (#{id})</p>"));
    }
    page_footer(ctx);
    Ok(())
}

fn browse(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Browse");
    emit_categories(ctx)?;
    emit_regions(ctx)?;
    page_footer(ctx);
    Ok(())
}

fn browse_categories(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Browse Categories");
    emit_categories(ctx)?;
    page_footer(ctx);
    Ok(())
}

fn search_items_in_category(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Items in Category");
    let category = app.random_category(rng);
    session.set_int("category_id", category);
    let page = rng.uniform_u64(0, 3);
    let r = ctx.query(
        &format!(
            "SELECT id, name, max_bid, nb_of_bids, end_date FROM items \
             WHERE category = ? AND end_date >= ? \
             ORDER BY end_date ASC LIMIT {}, {PAGE_SIZE}",
            page * PAGE_SIZE
        ),
        &[Value::Int(category), Value::Int(BASE_DATE)],
    )?;
    if let Some(first) = r.rows.first() {
        if let Some(id) = first[0].as_int() {
            session.set_int("item_id", id);
        }
    }
    emit_item_list(ctx, &r.rows);
    page_footer(ctx);
    Ok(())
}

fn browse_regions(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Browse Regions");
    emit_regions(ctx)?;
    page_footer(ctx);
    Ok(())
}

fn browse_categories_in_region(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Categories in Region");
    let region = app.random_region(rng);
    session.set_int("region_id", region);
    // Confirm the region exists (RUBiS resolves the region row first).
    ctx.query("SELECT id, name FROM regions WHERE id = ?", &[Value::Int(region)])?;
    emit_categories(ctx)?;
    page_footer(ctx);
    Ok(())
}

fn search_items_in_region(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Items in Region");
    let region = session.int("region_id").unwrap_or_else(|| app.random_region(rng));
    let category = app.random_category(rng);
    let r = ctx.query(
        &format!(
            "SELECT i.id, i.name, i.max_bid, i.nb_of_bids, i.end_date \
             FROM items i JOIN users u ON i.seller = u.id \
             WHERE i.category = ? AND u.region = ? AND i.end_date >= ? \
             ORDER BY i.end_date ASC LIMIT {PAGE_SIZE}"
        ),
        &[Value::Int(category), Value::Int(region), Value::Int(BASE_DATE)],
    )?;
    if let Some(first) = r.rows.first() {
        if let Some(id) = first[0].as_int() {
            session.set_int("item_id", id);
        }
    }
    emit_item_list(ctx, &r.rows);
    page_footer(ctx);
    Ok(())
}

fn view_item(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "View Item");
    let item = app.random_item(rng);
    session.set_int("item_id", item);
    let r = ctx.query(
        "SELECT id, name, description, initial_price, quantity, nb_of_bids, \
         max_bid, start_date, end_date, seller FROM items WHERE id = ?",
        &[Value::Int(item)],
    )?;
    let Some(row) = r.rows.first() else {
        ctx.emit("<p>This item is no longer for sale.</p>");
        page_footer(ctx);
        return Ok(());
    };
    let seller = row[9].clone();
    ctx.emit(&format!(
        "<h2>{}</h2><p>{}</p><p>current bid {} ({} bids), ends {}</p>",
        row[1], row[2], row[6], row[5], row[8]
    ));
    let s = ctx.query("SELECT nickname, rating FROM users WHERE id = ?", &[seller])?;
    if let Some(srow) = s.rows.first() {
        ctx.emit(&format!("<p>Seller {} (rating {})</p>", srow[0], srow[1]));
    }
    ctx.embed_asset(StaticAsset::full_image());
    page_footer(ctx);
    Ok(())
}

fn view_user_info(app: &Auction, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "User Information");
    let user = app.random_user(rng);
    let u = ctx.query(
        "SELECT nickname, rating, creation_date, region FROM users WHERE id = ?",
        &[Value::Int(user)],
    )?;
    if let Some(row) = u.rows.first() {
        ctx.emit(&format!("<h2>{} (rating {})</h2><p>member since {}</p>", row[0], row[1], row[2]));
    }
    let c = ctx.query(
        "SELECT c.rating, c.date, c.comment, u.nickname \
         FROM comments c JOIN users u ON c.from_user_id = u.id \
         WHERE c.to_user_id = ? ORDER BY c.date DESC LIMIT 25",
        &[Value::Int(user)],
    )?;
    for row in &c.rows {
        ctx.emit_bytes(120);
        ctx.emit(&format!("<tr><td>{}: {}</td></tr>", row[3], row[2]));
    }
    page_footer(ctx);
    Ok(())
}

fn view_bid_history(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Bid History");
    let item = focus_item(app, session, rng);
    let i = ctx.query("SELECT name FROM items WHERE id = ?", &[Value::Int(item)])?;
    if let Some(row) = i.rows.first() {
        ctx.emit(&format!("<h2>Bids on {}</h2>", row[0]));
    }
    let b = ctx.query(
        "SELECT b.bid, b.qty, b.date, u.nickname \
         FROM bids b JOIN users u ON b.user_id = u.id \
         WHERE b.item_id = ? ORDER BY b.bid DESC",
        &[Value::Int(item)],
    )?;
    for row in &b.rows {
        ctx.emit_bytes(90);
        ctx.emit(&format!("<tr><td>{} bid {}</td></tr>", row[3], row[0]));
    }
    page_footer(ctx);
    Ok(())
}

/// The three *Auth interactions share one shape: authenticate and show the
/// target form.
fn auth_form(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
    target: &str,
) -> AppResult<()> {
    page_header(ctx, &format!("{target} — authentication"));
    let uid = login(app, ctx, session, rng)?;
    // HTTP is stateless: the auth page re-verifies the credentials on
    // every submission, as RUBiS does.
    ctx.query("SELECT password FROM users WHERE id = ?", &[Value::Int(uid)])?;
    ctx.emit(&format!(
        "<form action=\"{target}\"><input type=\"hidden\" name=\"user\" value=\"{uid}\"></form>"
    ));
    page_footer(ctx);
    Ok(())
}

fn buy_now(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Buy Now");
    login(app, ctx, session, rng)?;
    let item = focus_item(app, session, rng);
    session.set_int("item_id", item);
    let r = ctx.query(
        "SELECT i.name, i.buy_now, i.quantity, u.nickname \
         FROM items i JOIN users u ON i.seller = u.id WHERE i.id = ?",
        &[Value::Int(item)],
    )?;
    if let Some(row) = r.rows.first() {
        ctx.emit(&format!("<p>Buy {} now for {} from {}</p>", row[0], row[1], row[3]));
    }
    page_footer(ctx);
    Ok(())
}

fn store_buy_now(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Store Buy Now");
    let uid = login(app, ctx, session, rng)?;
    let item = focus_item(app, session, rng);
    let qty = rng.uniform_i64(1, 2);
    // RUBiS issues plain statements here: each statement is atomic under
    // MyISAM's implicit per-statement table lock, and the paper's auction
    // results show no database lock contention. The sync configurations
    // additionally serialize per item in the container, which closes the
    // (benign) read-modify-write window without touching the database.
    let sync = ctx.sync_mode();
    if sync {
        ctx.app_lock("item", item as u64);
    }
    let run = |ctx: &mut RequestCtx<'_>| -> AppResult<bool> {
        let r = ctx.query("SELECT quantity FROM items WHERE id = ?", &[Value::Int(item)])?;
        let Some(have) = r.rows.first().and_then(|row| row[0].as_int()) else {
            return Ok(false);
        };
        let left = (have - qty).max(0);
        if left == 0 {
            // Sold out: close the auction now.
            ctx.query(
                "UPDATE items SET quantity = 0, end_date = ? WHERE id = ?",
                &[Value::Int(BASE_DATE), Value::Int(item)],
            )?;
        } else {
            ctx.query(
                "UPDATE items SET quantity = ? WHERE id = ?",
                &[Value::Int(left), Value::Int(item)],
            )?;
        }
        ctx.query(
            "INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (NULL, ?, ?, ?, ?)",
            &[Value::Int(uid), Value::Int(item), Value::Int(qty), Value::Int(BASE_DATE)],
        )?;
        Ok(true)
    };
    let result = run(ctx);
    if sync {
        ctx.app_unlock("item", item as u64);
    }
    if result? {
        ctx.emit("<p>Purchase recorded.</p>");
    } else {
        ctx.emit("<p>This item is no longer for sale.</p>");
    }
    page_footer(ctx);
    Ok(())
}

fn put_bid(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Put Bid");
    login(app, ctx, session, rng)?;
    let item = focus_item(app, session, rng);
    session.set_int("item_id", item);
    let r = ctx.query(
        "SELECT name, initial_price, max_bid, nb_of_bids FROM items WHERE id = ?",
        &[Value::Int(item)],
    )?;
    if let Some(row) = r.rows.first() {
        ctx.emit(&format!("<p>Bid on {}: current {} ({} bids)</p>", row[0], row[2], row[3]));
    }
    let h =
        ctx.query("SELECT MAX(bid), COUNT(*) FROM bids WHERE item_id = ?", &[Value::Int(item)])?;
    if let Some(row) = h.rows.first() {
        ctx.emit(&format!("<p>History: top {} of {}</p>", row[0], row[1]));
    }
    page_footer(ctx);
    Ok(())
}

fn store_bid(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Store Bid");
    let uid = login(app, ctx, session, rng)?;
    let item = focus_item(app, session, rng);
    let sync = ctx.sync_mode();
    if sync {
        ctx.app_lock("item", item as u64);
    }
    let run = |ctx: &mut RequestCtx<'_>, rng: &mut SimRng| -> AppResult<bool> {
        let r = ctx.query(
            "SELECT max_bid, nb_of_bids, initial_price FROM items WHERE id = ?",
            &[Value::Int(item)],
        )?;
        let Some(row) = r.rows.first() else {
            return Ok(false);
        };
        let current =
            row[0].as_float().filter(|b| *b > 0.0).or_else(|| row[2].as_float()).unwrap_or(1.0);
        let bid = current + rng.uniform_i64(50, 500) as f64 / 100.0;
        ctx.query(
            "INSERT INTO bids (id, user_id, item_id, qty, bid, max_bid, date) \
             VALUES (NULL, ?, ?, ?, ?, ?, ?)",
            &[
                Value::Int(uid),
                Value::Int(item),
                Value::Int(1),
                Value::Float(bid),
                Value::Float(bid * 1.1),
                Value::Int(BASE_DATE),
            ],
        )?;
        // The denormalized per-item bid summary (§3.2).
        ctx.query(
            "UPDATE items SET max_bid = ?, nb_of_bids = nb_of_bids + 1 WHERE id = ?",
            &[Value::Float(bid), Value::Int(item)],
        )?;
        Ok(true)
    };
    let result = run(ctx, rng);
    if sync {
        ctx.app_unlock("item", item as u64);
    }
    if result? {
        ctx.emit("<p>Bid recorded.</p>");
    } else {
        ctx.emit("<p>This auction has ended.</p>");
    }
    page_footer(ctx);
    Ok(())
}

fn put_comment(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Put Comment");
    login(app, ctx, session, rng)?;
    let to = app.random_user(rng);
    session.set_int("comment_to", to);
    let item = focus_item(app, session, rng);
    let u = ctx.query("SELECT nickname, rating FROM users WHERE id = ?", &[Value::Int(to)])?;
    let i = ctx.query("SELECT name FROM items WHERE id = ?", &[Value::Int(item)])?;
    if let (Some(urow), Some(irow)) = (u.rows.first(), i.rows.first()) {
        ctx.emit(&format!("<form><p>Comment on {} about {}</p></form>", urow[0], irow[0]));
    }
    page_footer(ctx);
    Ok(())
}

fn store_comment(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Store Comment");
    let uid = login(app, ctx, session, rng)?;
    let to = session.int("comment_to").unwrap_or_else(|| app.random_user(rng));
    let item = focus_item(app, session, rng);
    let rating = rng.uniform_i64(-1, 1);
    let sync = ctx.sync_mode();
    if sync {
        ctx.app_lock("user", to as u64);
    }
    let run = |ctx: &mut RequestCtx<'_>, rng: &mut SimRng| -> AppResult<()> {
        ctx.query(
            "INSERT INTO comments (id, from_user_id, to_user_id, item_id, rating, \
             date, comment) VALUES (NULL, ?, ?, ?, ?, ?, ?)",
            &[
                Value::Int(uid),
                Value::Int(to),
                Value::Int(item),
                Value::Int(rating),
                Value::Int(BASE_DATE),
                Value::str(rng.ascii_string(40)),
            ],
        )?;
        ctx.query(
            "UPDATE users SET rating = rating + ? WHERE id = ?",
            &[Value::Int(rating), Value::Int(to)],
        )?;
        Ok(())
    };
    let result = run(ctx, rng);
    if sync {
        ctx.app_unlock("user", to as u64);
    }
    result?;
    ctx.emit("<p>Comment stored.</p>");
    page_footer(ctx);
    Ok(())
}

fn sell(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Sell");
    emit_categories(ctx)?;
    page_footer(ctx);
    Ok(())
}

fn select_category_to_sell(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Select Category");
    emit_categories(ctx)?;
    page_footer(ctx);
    Ok(())
}

fn sell_item_form(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Sell Item");
    login(app, ctx, session, rng)?;
    let category = app.random_category(rng);
    session.set_int("sell_category", category);
    let r = ctx.query("SELECT name FROM categories WHERE id = ?", &[Value::Int(category)])?;
    if let Some(row) = r.rows.first() {
        ctx.emit(&format!("<form><p>List an item in {}</p><input name=\"name\"></form>", row[0]));
    }
    page_footer(ctx);
    Ok(())
}

fn register_item(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Register Item");
    let uid = login(app, ctx, session, rng)?;
    let category = session.int("sell_category").unwrap_or_else(|| app.random_category(rng));
    let price = rng.uniform_i64(100, 50_000) as f64 / 100.0;
    let r = ctx.query(
        "INSERT INTO items (id, name, description, initial_price, quantity, \
         reserve_price, buy_now, nb_of_bids, max_bid, start_date, end_date, \
         seller, category) VALUES (NULL, ?, ?, ?, ?, ?, ?, 0, 0.0, ?, ?, ?, ?)",
        &[
            Value::str(format!("ITEM {}", rng.ascii_string(14))),
            Value::str(rng.ascii_string(60)),
            Value::Float(price),
            Value::Int(rng.uniform_i64(1, 10)),
            Value::Float(price * 1.1),
            Value::Float(price * 1.5),
            Value::Int(BASE_DATE),
            Value::Int(BASE_DATE + rng.uniform_i64(1, 7) * DAY),
            Value::Int(uid),
            Value::Int(category),
        ],
    )?;
    if ctx.sync_mode() {
        ctx.app_lock("ids", 0);
        ctx.query("UPDATE ids SET value = value + 1 WHERE table_name = 'items'", &[])?;
        ctx.app_unlock("ids", 0);
    } else {
        ctx.query("LOCK TABLES ids WRITE", &[])?;
        ctx.query("UPDATE ids SET value = value + 1 WHERE table_name = 'items'", &[])?;
        ctx.query("UNLOCK TABLES", &[])?;
    }
    if let Some(id) = r.last_insert_id {
        session.set_int("item_id", id);
        ctx.emit(&format!("<p>Item #{id} listed (auction open for a week).</p>"));
    }
    page_footer(ctx);
    Ok(())
}

fn about_me(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "About Me");
    let uid = login(app, ctx, session, rng)?;
    let u = ctx.query(
        "SELECT nickname, rating, balance, email FROM users WHERE id = ?",
        &[Value::Int(uid)],
    )?;
    if let Some(row) = u.rows.first() {
        ctx.emit(&format!("<h2>{} (rating {})</h2>", row[0], row[1]));
    }
    // Current bids with live item details.
    let bids = ctx.query(
        "SELECT b.bid, b.date, i.name, i.max_bid, i.end_date \
         FROM bids b JOIN items i ON b.item_id = i.id \
         WHERE b.user_id = ? ORDER BY b.date DESC LIMIT 20",
        &[Value::Int(uid)],
    )?;
    for row in &bids.rows {
        ctx.emit_bytes(130);
        ctx.emit(&format!("<tr><td>bid {} on {}</td></tr>", row[0], row[2]));
    }
    // Items the user is selling.
    let selling = ctx.query(
        "SELECT id, name, max_bid, nb_of_bids FROM items WHERE seller = ? LIMIT 20",
        &[Value::Int(uid)],
    )?;
    emit_item_list(ctx, &selling.rows);
    // Direct purchases.
    let bought = ctx.query(
        "SELECT id, item_id, qty, date FROM buy_now WHERE buyer_id = ? LIMIT 20",
        &[Value::Int(uid)],
    )?;
    for row in &bought.rows {
        ctx.emit_bytes(80);
        ctx.emit(&format!("<tr><td>bought item {}</td></tr>", row[1]));
    }
    // Feedback received.
    let comments = ctx.query(
        "SELECT c.comment, c.rating, u.nickname \
         FROM comments c JOIN users u ON c.from_user_id = u.id \
         WHERE c.to_user_id = ? ORDER BY c.date DESC LIMIT 10",
        &[Value::Int(uid)],
    )?;
    for row in &comments.rows {
        ctx.emit_bytes(110);
        ctx.emit(&format!("<tr><td>{}: {}</td></tr>", row[2], row[0]));
    }
    page_footer(ctx);
    Ok(())
}
