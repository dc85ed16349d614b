//! Explicit-SQL implementations of the 14 TPC-W interactions — the code
//! path shared by the PHP and servlet architectures (the paper uses
//! *identical queries* in both, §4.2). In the `(sync)` configurations the
//! `LOCK TABLES`/`UNLOCK TABLES` statements are removed and replaced by
//! container-level locks, exactly as §4.2 describes.

use crate::app::{cart, Bookstore, Interaction};
use crate::populate::{BASE_DATE, DAY};
use dynamid_core::{AppError, AppResult, RequestCtx, SessionData, StaticAsset};
use dynamid_sim::SimRng;
use dynamid_sqldb::Value;

/// Orders window for the best-sellers listing (TPC-W: the 3,333 most
/// recent orders).
pub const BEST_SELLER_ORDER_WINDOW: i64 = 3_333;

/// Dispatches one interaction.
pub fn handle(
    app: &Bookstore,
    id: usize,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    match id {
        x if x == Interaction::Home as usize => home(app, ctx, session, rng),
        x if x == Interaction::NewProducts as usize => new_products(app, ctx, rng),
        x if x == Interaction::BestSellers as usize => best_sellers(app, ctx, rng),
        x if x == Interaction::ProductDetail as usize => product_detail(app, ctx, session, rng),
        x if x == Interaction::SearchRequest as usize => search_request(app, ctx, rng),
        x if x == Interaction::SearchResults as usize => search_results(app, ctx, rng),
        x if x == Interaction::ShoppingCart as usize => shopping_cart(app, ctx, session, rng),
        x if x == Interaction::CustomerRegistration as usize => {
            customer_registration(app, ctx, session, rng)
        }
        x if x == Interaction::BuyRequest as usize => buy_request(app, ctx, session, rng),
        x if x == Interaction::BuyConfirm as usize => buy_confirm(app, ctx, session, rng),
        x if x == Interaction::OrderInquiry as usize => order_inquiry(app, ctx, session, rng),
        x if x == Interaction::OrderDisplay as usize => order_display(app, ctx, session, rng),
        x if x == Interaction::AdminRequest as usize => admin_request(app, ctx, session, rng),
        x if x == Interaction::AdminConfirm as usize => admin_confirm(app, ctx, session, rng),
        other => Err(AppError::Logic(format!("unknown interaction {other}"))),
    }
}

/// Logs the session's customer in (random registered customer on first
/// use), returning the customer id.
fn login(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<i64> {
    if let Some(id) = session.int("customer_id") {
        return Ok(id);
    }
    let uname = app.random_uname(rng);
    let r = ctx.query(
        "SELECT id, fname, lname, discount FROM customers WHERE uname = ?",
        &[Value::str(&uname)],
    )?;
    let id = r
        .rows
        .first()
        .and_then(|row| row[0].as_int())
        .ok_or_else(|| AppError::Logic(format!("no customer '{uname}'")))?;
    session.set_int("customer_id", id);
    Ok(id)
}

fn page_header(ctx: &mut RequestCtx<'_>, title: &str) {
    ctx.emit(&format!("<html><head><title>{title}</title></head><body><h1>{title}</h1>"));
    ctx.emit_bytes(1_100); // banner markup, nav tables, style
    ctx.embed_asset(StaticAsset::button());
    ctx.embed_asset(StaticAsset::button());
}

fn page_footer(ctx: &mut RequestCtx<'_>) {
    ctx.emit_bytes(420);
    ctx.emit("</body></html>");
}

/// WI-1 Home: greet the customer, show five promotional items.
fn home(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "TPC-W Home");
    if let Some(cid) = session.int("customer_id") {
        let r = ctx.query("SELECT fname, lname FROM customers WHERE id = ?", &[Value::Int(cid)])?;
        if let Some(row) = r.rows.first() {
            ctx.emit(&format!("<p>Welcome back {} {}</p>", row[0], row[1]));
        }
    }
    // Five promotional items (TPC-W picks related items of a random item).
    let anchor = app.random_item(rng);
    let r = ctx.query(
        "SELECT related1, related2, related3, related4, related5 FROM items WHERE id = ?",
        &[Value::Int(anchor)],
    )?;
    if let Some(row) = r.rows.first() {
        let promos: Vec<Value> = row.clone();
        for p in promos {
            let item = ctx.query("SELECT id, title, cost FROM items WHERE id = ?", &[p])?;
            if let Some(it) = item.rows.first() {
                ctx.emit(&format!(
                    "<a href=\"product?i={}\">{} (${})</a><br>",
                    it[0], it[1], it[2]
                ));
                ctx.embed_asset(StaticAsset::thumbnail());
            }
        }
    }
    page_footer(ctx);
    Ok(())
}

/// WI-2 New Products: the 50 newest books in a subject.
fn new_products(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "New Products");
    let subject = app.random_subject(rng);
    let r = ctx.query(
        "SELECT i.id, i.title, i.cost, i.pub_date, a.fname, a.lname \
         FROM items i JOIN authors a ON i.author_id = a.id \
         WHERE i.subject = ? ORDER BY i.pub_date DESC, i.title LIMIT 50",
        &[Value::str(&subject)],
    )?;
    for row in &r.rows {
        ctx.emit_bytes(150);
        ctx.emit(&format!("<tr><td>{}</td></tr>", row[1]));
    }
    for _ in 0..5.min(r.rows.len()) {
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-3 Best Sellers: top 50 items by quantity sold within the 3,333 most
/// recent orders — TPC-W's heaviest read query.
fn best_sellers(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "Best Sellers");
    let subject = app.random_subject(rng);
    let max_order =
        ctx.query("SELECT MAX(id) FROM orders", &[])?.scalar().and_then(Value::as_int).unwrap_or(0);
    let horizon = (max_order - BEST_SELLER_ORDER_WINDOW).max(0);
    let r = ctx.query(
        "SELECT i.id, i.title, i.cost, a.lname, SUM(ol.qty) AS total \
         FROM order_line ol \
         JOIN items i ON ol.item_id = i.id \
         JOIN authors a ON i.author_id = a.id \
         WHERE ol.order_id > ? AND i.subject = ? \
         GROUP BY i.id ORDER BY total DESC LIMIT 50",
        &[Value::Int(horizon), Value::str(&subject)],
    )?;
    for row in &r.rows {
        ctx.emit_bytes(160);
        ctx.emit(&format!("<tr><td>{} sold {}</td></tr>", row[1], row[4]));
    }
    for _ in 0..5.min(r.rows.len()) {
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-4 Product Detail.
fn product_detail(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Product Detail");
    let item = app.random_item(rng);
    let r = ctx.query(
        "SELECT i.id, i.title, i.descr, i.cost, i.stock, i.isbn, i.pub_date, \
                a.fname, a.lname \
         FROM items i JOIN authors a ON i.author_id = a.id WHERE i.id = ?",
        &[Value::Int(item)],
    )?;
    if let Some(row) = r.rows.first() {
        ctx.emit(&format!(
            "<h2>{}</h2><p>by {} {}</p><p>{}</p><p>${} ({} in stock)</p>",
            row[1], row[7], row[8], row[2], row[3], row[4]
        ));
        session.set_int("last_item", item);
        ctx.embed_asset(StaticAsset::full_image());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-5 Search Request: the search form (plus the subject list).
fn search_request(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "Search");
    // The form page shows a promotional strip like Home does.
    let anchor = app.random_item(rng);
    let r =
        ctx.query("SELECT related1, related2 FROM items WHERE id = ?", &[Value::Int(anchor)])?;
    if let Some(row) = r.rows.first() {
        for p in row.clone() {
            let item = ctx.query("SELECT title FROM items WHERE id = ?", &[p])?;
            if let Some(it) = item.rows.first() {
                ctx.emit(&format!("<i>{}</i>", it[0]));
            }
        }
    }
    ctx.emit("<form action=\"search\"><input name=\"q\"></form>");
    page_footer(ctx);
    Ok(())
}

/// WI-6 Search Results: by subject (indexed), by title, or by author
/// (LIKE scans), equally likely.
fn search_results(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "Search Results");
    let r = match rng.index(3) {
        0 => {
            let subject = app.random_subject(rng);
            ctx.query(
                "SELECT i.id, i.title, i.cost FROM items i \
                 WHERE i.subject = ? ORDER BY i.title LIMIT 50",
                &[Value::str(&subject)],
            )?
        }
        1 => {
            let token = format!("%TITLE {}%", rng.index(app.scale().items / 10 + 1) * 10);
            ctx.query(
                "SELECT i.id, i.title, i.cost FROM items i \
                 WHERE i.title LIKE ? ORDER BY i.title LIMIT 50",
                &[Value::str(&token)],
            )?
        }
        _ => {
            let author = format!("AUTHOR{}", rng.index(app.scale().authors()));
            ctx.query(
                "SELECT i.id, i.title, i.cost FROM items i \
                 JOIN authors a ON i.author_id = a.id \
                 WHERE a.lname = ? ORDER BY i.title LIMIT 50",
                &[Value::str(&author)],
            )?
        }
    };
    for row in &r.rows {
        ctx.emit_bytes(140);
        ctx.emit(&format!("<tr><td>{}</td></tr>", row[1]));
    }
    for _ in 0..5.min(r.rows.len()) {
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-7 Shopping Cart: add the last-viewed (or a random) item, display the
/// cart with live item data.
fn shopping_cart(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Shopping Cart");
    // TPC-W: if the cart is empty, a random item is added.
    let add = session.int("last_item").unwrap_or_else(|| app.random_item(rng));
    cart::add(session, add, rng.uniform_i64(1, 3));
    // Occasionally adjust a line.
    let lines = cart::lines(session);
    if lines.len() > 1 && rng.chance(0.3) {
        let (item, _) = lines[rng.index(lines.len())];
        cart::set_qty(session, item, rng.uniform_i64(0, 4));
    }
    let mut total = 0.0;
    for (item, qty) in cart::lines(session) {
        let r = ctx.query("SELECT title, cost FROM items WHERE id = ?", &[Value::Int(item)])?;
        if let Some(row) = r.rows.first() {
            let cost = row[1].as_float().unwrap_or(0.0);
            total += cost * qty as f64;
            ctx.emit(&format!("<tr><td>{}</td><td>{qty}</td><td>${cost}</td></tr>", row[0]));
        }
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    ctx.emit(&format!("<p>Total: ${total:.2}</p>"));
    page_footer(ctx);
    Ok(())
}

/// WI-8 Customer Registration: register a fresh customer (or re-login).
fn customer_registration(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Customer Registration");
    if rng.chance(0.2) {
        // Returning customer path: re-load the customer record.
        let id = login(app, ctx, session, rng)?;
        let r =
            ctx.query("SELECT fname, lname, email FROM customers WHERE id = ?", &[Value::Int(id)])?;
        if let Some(row) = r.rows.first() {
            ctx.emit(&format!("<p>Welcome back {} {} (#{id})</p>", row[0], row[1]));
        }
        page_footer(ctx);
        return Ok(());
    }
    let addr = ctx.query(
        "INSERT INTO address (id, street, city, zip, country_id) VALUES (NULL, ?, ?, ?, ?)",
        &[
            Value::str(format!("{} NEW ST", rng.uniform_u64(1, 9_999))),
            Value::str("NEWCITY"),
            Value::str(format!("{:05}", rng.uniform_u64(10_000, 99_999))),
            Value::Int(rng.uniform_i64(1, 92)),
        ],
    )?;
    let addr_id = addr.last_insert_id.unwrap_or(1);
    let uname = format!("NC{}_{}", session.client(), rng.uniform_u64(0, u32::MAX as u64));
    let cust = ctx.query(
        "INSERT INTO customers (id, uname, passwd, fname, lname, addr_id, phone, email, since, discount) \
         VALUES (NULL, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        &[
            Value::str(&uname),
            Value::str("pw"),
            Value::str("NEW"),
            Value::str("CUSTOMER"),
            Value::Int(addr_id),
            Value::str("5550000000"),
            Value::str(format!("{uname}@example.com")),
            Value::Int(BASE_DATE),
            Value::Float(0.1),
        ],
    )?;
    if let Some(id) = cust.last_insert_id {
        session.set_int("customer_id", id);
        ctx.emit(&format!("<p>Registered as {uname} (#{id})</p>"));
    }
    page_footer(ctx);
    Ok(())
}

/// WI-9 Buy Request: authenticate and show the order preview.
fn buy_request(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Buy Request");
    let cid = login(app, ctx, session, rng)?;
    if cart::lines(session).is_empty() {
        cart::add(session, app.random_item(rng), 1);
    }
    let r = ctx.query(
        "SELECT c.fname, c.lname, c.discount, a.street, a.city, co.name \
         FROM customers c \
         JOIN address a ON c.addr_id = a.id \
         JOIN countries co ON a.country_id = co.id \
         WHERE c.id = ?",
        &[Value::Int(cid)],
    )?;
    if let Some(row) = r.rows.first() {
        ctx.emit(&format!(
            "<p>Ship to {} {}, {} {} ({})</p>",
            row[0], row[1], row[3], row[4], row[5]
        ));
    }
    let mut subtotal = 0.0;
    for (item, qty) in cart::lines(session) {
        let r = ctx.query("SELECT cost FROM items WHERE id = ?", &[Value::Int(item)])?;
        if let Some(row) = r.rows.first() {
            subtotal += row[0].as_float().unwrap_or(0.0) * qty as f64;
        }
    }
    session.set("pending_subtotal", Value::Float(subtotal));
    ctx.emit(&format!("<p>Subtotal ${subtotal:.2}</p>"));
    page_footer(ctx);
    Ok(())
}

/// WI-10 Buy Confirm: the order-placement transaction. In the PHP and
/// plain-servlet configurations the whole span is guarded with
/// `LOCK TABLES` (MyISAM's only consistency tool); the `(sync)`
/// configurations guard it with container-level locks and let each
/// statement take only its own short lock.
fn buy_confirm(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Buy Confirm");
    let cid = login(app, ctx, session, rng)?;
    if cart::lines(session).is_empty() {
        cart::add(session, app.random_item(rng), 1);
    }
    let lines = cart::lines(session);
    let sync = ctx.sync_mode();

    // Pricing reads happen before the consistency span — the span guards
    // only the write phase (order graph + stock decrements), keeping the
    // MyISAM table locks as short as a careful PHP implementation would.
    let disc = ctx
        .query("SELECT discount FROM customers WHERE id = ?", &[Value::Int(cid)])?
        .scalar()
        .and_then(Value::as_float)
        .unwrap_or(0.0);
    let mut subtotal = 0.0;
    for (item, qty) in &lines {
        let r = ctx.query("SELECT cost, stock FROM items WHERE id = ?", &[Value::Int(*item)])?;
        if let Some(row) = r.rows.first() {
            subtotal += row[0].as_float().unwrap_or(0.0) * *qty as f64;
        }
    }

    if sync {
        ctx.app_lock("customer", cid as u64);
        let mut stripes: Vec<i64> = lines.iter().map(|(i, _)| *i).collect();
        stripes.sort_unstable();
        for item in &stripes {
            ctx.app_lock("item", *item as u64);
        }
    } else {
        ctx.query(
            "LOCK TABLES orders WRITE, order_line WRITE, credit_info WRITE, items WRITE",
            &[],
        )?;
    }

    let run =
        |ctx: &mut RequestCtx<'_>, session: &mut SessionData, rng: &mut SimRng| -> AppResult<f64> {
            let total = subtotal * (1.0 - disc) * 1.0825 + 3.0;
            let date = BASE_DATE + rng.uniform_i64(0, 30) * DAY;
            let order = ctx.query(
                "INSERT INTO orders (id, customer_id, date, subtotal, tax, total, \
             ship_type, ship_date, status) VALUES (NULL, ?, ?, ?, ?, ?, ?, ?, ?)",
                &[
                    Value::Int(cid),
                    Value::Int(date),
                    Value::Float(subtotal),
                    Value::Float(subtotal * 0.0825),
                    Value::Float(total),
                    Value::str("AIR"),
                    Value::Int(date + 3 * DAY),
                    Value::str("PENDING"),
                ],
            )?;
            let order_id = order.last_insert_id.unwrap_or(0);
            for (item, qty) in &lines {
                ctx.query(
                    "INSERT INTO order_line (id, order_id, item_id, qty, discount, comment) \
                 VALUES (NULL, ?, ?, ?, ?, ?)",
                    &[
                        Value::Int(order_id),
                        Value::Int(*item),
                        Value::Int(*qty),
                        Value::Float(disc),
                        Value::str("OK"),
                    ],
                )?;
                // TPC-W restocks when stock would fall below zero.
                ctx.query(
                    "UPDATE items SET stock = stock - ? WHERE id = ?",
                    &[Value::Int(*qty), Value::Int(*item)],
                )?;
            }
            ctx.query(
                "INSERT INTO credit_info (id, order_id, cc_type, cc_num, cc_name, \
             cc_expiry, auth_id, amount, date) VALUES (NULL, ?, ?, ?, ?, ?, ?, ?, ?)",
                &[
                    Value::Int(order_id),
                    Value::str("VISA"),
                    Value::str("4111111111111111"),
                    Value::str("CARD HOLDER"),
                    Value::Int(date + 365 * DAY),
                    Value::str(format!("AUTH{}", rng.uniform_u64(0, 999_999))),
                    Value::Float(total),
                    Value::Int(date),
                ],
            )?;
            session.set_int("last_order", order_id);
            Ok(total)
        };
    let result = run(ctx, session, rng);

    if sync {
        let mut stripes: Vec<i64> = lines.iter().map(|(i, _)| *i).collect();
        stripes.sort_unstable();
        for item in stripes.iter().rev() {
            ctx.app_unlock("item", *item as u64);
        }
        ctx.app_unlock("customer", cid as u64);
    } else {
        ctx.query("UNLOCK TABLES", &[])?;
    }
    let total = result?;
    cart::clear(session);
    ctx.emit(&format!("<p>Order placed, total ${total:.2}</p>"));
    page_footer(ctx);
    Ok(())
}

/// WI-11 Order Inquiry: the login form for order status.
fn order_inquiry(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Order Inquiry");
    let cid = login(app, ctx, session, rng)?;
    let r = ctx.query("SELECT uname FROM customers WHERE id = ?", &[Value::Int(cid)])?;
    let uname =
        r.rows.first().and_then(|row| row[0].as_str().map(str::to_string)).unwrap_or_default();
    ctx.emit(&format!("<form><input name=\"customer\" value=\"{uname}\"></form>"));
    page_footer(ctx);
    Ok(())
}

/// WI-12 Order Display: the customer's most recent order with its lines
/// and payment record.
fn order_display(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Order Display");
    let cid = login(app, ctx, session, rng)?;
    let order = ctx.query(
        "SELECT id, date, subtotal, total, status FROM orders \
         WHERE customer_id = ? ORDER BY date DESC, id DESC LIMIT 1",
        &[Value::Int(cid)],
    )?;
    let Some(orow) = order.rows.first() else {
        ctx.emit("<p>No orders on file.</p>");
        page_footer(ctx);
        return Ok(());
    };
    let order_id = orow[0].as_int().unwrap_or(0);
    ctx.emit(&format!(
        "<p>Order #{order_id} placed {} status {} total ${}</p>",
        orow[1], orow[4], orow[3]
    ));
    let lines = ctx.query(
        "SELECT ol.qty, ol.discount, i.title, i.cost \
         FROM order_line ol JOIN items i ON ol.item_id = i.id \
         WHERE ol.order_id = ?",
        &[Value::Int(order_id)],
    )?;
    for row in &lines.rows {
        ctx.emit(&format!("<tr><td>{} x {} (${})</td></tr>", row[0], row[2], row[3]));
    }
    let cc = ctx.query(
        "SELECT cc_type, amount, date FROM credit_info WHERE order_id = ?",
        &[Value::Int(order_id)],
    )?;
    if let Some(row) = cc.rows.first() {
        ctx.emit(&format!("<p>Paid by {} (${})</p>", row[0], row[1]));
    }
    page_footer(ctx);
    Ok(())
}

/// WI-13 Admin Request: show the item an administrator wants to update.
fn admin_request(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Admin Request");
    let item = app.random_item(rng);
    session.set_int("admin_item", item);
    let r =
        ctx.query("SELECT id, title, cost, stock FROM items WHERE id = ?", &[Value::Int(item)])?;
    if let Some(row) = r.rows.first() {
        ctx.emit(&format!("<form><p>{} cost ${} stock {}</p></form>", row[1], row[2], row[3]));
    }
    page_footer(ctx);
    Ok(())
}

/// WI-14 Admin Confirm: update the item's price and recompute its related
/// items from recent co-purchases (TPC-W's expensive admin update).
fn admin_confirm(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Admin Confirm");
    let item = session.int("admin_item").unwrap_or_else(|| app.random_item(rng));
    // The expensive co-purchase discovery runs before the lock span; only
    // the item update itself needs the write lock.
    let max_order =
        ctx.query("SELECT MAX(id) FROM orders", &[])?.scalar().and_then(Value::as_int).unwrap_or(0);
    let horizon = (max_order - BEST_SELLER_ORDER_WINDOW).max(0);
    let related = ctx.query(
        "SELECT ol2.item_id, COUNT(*) AS n \
         FROM order_line ol1 JOIN order_line ol2 ON ol1.order_id = ol2.order_id \
         WHERE ol1.item_id = ? AND ol1.order_id > ? \
         GROUP BY ol2.item_id ORDER BY n DESC LIMIT 5",
        &[Value::Int(item), Value::Int(horizon)],
    )?;
    let mut rel: Vec<i64> =
        related.rows.iter().filter_map(|r| r[0].as_int()).filter(|r| *r != item).collect();
    while rel.len() < 5 {
        rel.push(app.random_item(rng));
    }
    let sync = ctx.sync_mode();
    if sync {
        ctx.app_lock("item", item as u64);
    } else {
        ctx.query("LOCK TABLES items WRITE", &[])?;
    }
    let run = |ctx: &mut RequestCtx<'_>, rng: &mut SimRng| -> AppResult<()> {
        let _ = rng;
        ctx.query(
            "UPDATE items SET cost = ?, pub_date = ?, related1 = ?, related2 = ?, \
             related3 = ?, related4 = ?, related5 = ? WHERE id = ?",
            &[
                Value::Float(rng.uniform_i64(100, 9999) as f64 / 100.0),
                Value::Int(BASE_DATE),
                Value::Int(rel[0]),
                Value::Int(rel[1]),
                Value::Int(rel[2]),
                Value::Int(rel[3]),
                Value::Int(rel[4]),
                Value::Int(item),
            ],
        )?;
        Ok(())
    };
    let result = run(ctx, rng);
    if sync {
        ctx.app_unlock("item", item as u64);
    } else {
        ctx.query("UNLOCK TABLES", &[])?;
    }
    result?;
    ctx.emit(&format!("<p>Item {item} updated.</p>"));
    page_footer(ctx);
    Ok(())
}
