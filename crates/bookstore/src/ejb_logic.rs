//! Entity-bean implementations of the 14 TPC-W interactions — the EJB
//! architecture (`Ws-Servlet-EJB-DB`).
//!
//! Structure follows the paper's session-façade pattern (§4.2, Figure 3):
//! the servlet keeps only presentation logic (the `ctx.emit` calls below
//! run on the servlet tier); business logic lives in stateless session
//! façades reached over RMI; persistence is entity beans whose state the
//! container maintains with container-generated single-row SQL. Finder
//! methods return primary keys and each entity is activated individually —
//! the N+1 access pattern responsible for the paper's "many short queries"
//! observation.
//!
//! Read-only browsing façades go through [`RequestCtx::facade_cached`],
//! keyed by their request parameters: with no method cache installed this
//! is plain `facade`, while the caching tier turns repeat invocations into
//! a single container-tier cache hit that skips the RMI hop, the façade
//! and bean accesses, and the container-generated SQL. Façades that write
//! (cart, order placement, registration, admin) always execute.

use crate::app::{cart, Bookstore, Interaction};
use crate::populate::{BASE_DATE, DAY};
use crate::sql_logic::BEST_SELLER_ORDER_WINDOW;
use dynamid_core::{AppError, AppResult, RequestCtx, SessionData, StaticAsset};
use dynamid_sim::SimRng;
use dynamid_sqldb::Value;
use std::collections::HashMap;

/// Finder limit on order-line beans activated by the best-sellers façade
/// (set in the deployment descriptor). CMP offers no aggregates, so the
/// façade aggregates in memory over activated beans — the paper's "many
/// short queries to maintain the state of the beans"; the limit keeps the
/// page bounded, at the price of a slightly stale chart.
const BEST_SELLER_LINE_CAP: u64 = 3_000;

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

fn page_header(ctx: &mut RequestCtx<'_>, title: &str) {
    ctx.emit(&format!("<html><head><title>{title}</title></head><body><h1>{title}</h1>"));
    ctx.emit_bytes(1_100);
    ctx.embed_asset(StaticAsset::button());
    ctx.embed_asset(StaticAsset::button());
}

fn page_footer(ctx: &mut RequestCtx<'_>) {
    ctx.emit_bytes(420);
    ctx.emit("</body></html>");
}

/// CustomerSession.login: find the customer bean by user name.
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
    let id = ctx.facade_cached("CustomerSession.login", &[Value::str(&uname)], |em| {
        let pks = em.find_pks_where("customers", "uname", Value::str(&uname))?;
        let pk = pks
            .into_iter()
            .next()
            .ok_or_else(|| AppError::Logic(format!("no customer '{uname}'")))?;
        let h = em
            .find("customers", pk.clone())?
            .ok_or_else(|| AppError::Logic("customer vanished".into()))?;
        em.get(h, "fname")?;
        em.get(h, "lname")?;
        Ok(pk.as_int().unwrap_or(0))
    })?;
    session.set_int("customer_id", id);
    Ok(id)
}

/// WI-1 Home.
fn home(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "TPC-W Home");
    if session.int("customer_id").is_none() && rng.chance(0.3) {
        login(app, ctx, session, rng)?;
    }
    let anchor = app.random_item(rng);
    let titles = ctx.facade_cached("PromoSession.promos", &[Value::Int(anchor)], |em| {
        let mut titles = Vec::new();
        let Some(a) = em.find("items", Value::Int(anchor))? else {
            return Ok(titles);
        };
        for rel in ["related1", "related2", "related3", "related4", "related5"] {
            let pk = em.get(a, rel)?;
            if let Some(h) = em.find("items", pk)? {
                titles.push((em.get(h, "title")?, em.get(h, "cost")?));
            }
        }
        Ok(titles)
    })?;
    for (title, cost) in titles {
        ctx.emit(&format!("<a>{title} (${cost})</a><br>"));
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-2 New Products: finder + 50 activations.
fn new_products(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "New Products");
    let subject = app.random_subject(rng);
    let rows = ctx.facade_cached("CatalogSession.newProducts", &[Value::str(&subject)], |em| {
        let pks =
            em.find_pks_ordered("items", "subject", Value::str(&subject), "pub_date", true, 50)?;
        let mut out = Vec::new();
        for pk in pks {
            if let Some(h) = em.find("items", pk)? {
                out.push((em.get(h, "title")?, em.get(h, "cost")?));
            }
        }
        Ok(out)
    })?;
    for (title, _cost) in &rows {
        ctx.emit_bytes(150);
        ctx.emit(&format!("<tr><td>{title}</td></tr>"));
    }
    for _ in 0..5.min(rows.len()) {
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-3 Best Sellers: the session façade walks recent order-line beans and
/// aggregates in memory (CMP offers no aggregates), then activates the
/// winning item beans.
fn best_sellers(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "Best Sellers");
    let subject = app.random_subject(rng);
    let rows = ctx.facade_cached("CatalogSession.bestSellers", &[Value::str(&subject)], |em| {
        // Window: line pks above the horizon, capped by the finder limit.
        let max_order = em.find_pks_query_tail("orders", "ORDER BY id DESC LIMIT 1", &[])?;
        let horizon = max_order
            .first()
            .and_then(Value::as_int)
            .map(|m| (m - BEST_SELLER_ORDER_WINDOW).max(0))
            .unwrap_or(0);
        let line_pks = em.find_pks_query_tail(
            "order_line",
            &format!("WHERE order_id > ? LIMIT {BEST_SELLER_LINE_CAP}"),
            &[Value::Int(horizon)],
        )?;
        // Activate each line bean and tally quantities per item.
        let mut tally: HashMap<i64, i64> = HashMap::new();
        for pk in line_pks {
            if let Some(h) = em.find("order_line", pk)? {
                let item = em.get(h, "item_id")?.as_int().unwrap_or(0);
                let qty = em.get(h, "qty")?.as_int().unwrap_or(0);
                *tally.entry(item).or_insert(0) += qty;
            }
        }
        let mut ranked: Vec<(i64, i64)> = tally.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        // Activate the top items, filtering by subject.
        let mut out = Vec::new();
        for (item, sold) in ranked {
            if out.len() >= 50 {
                break;
            }
            if let Some(h) = em.find("items", Value::Int(item))? {
                if em.get(h, "subject")?.as_str() == Some(subject.as_str()) {
                    out.push((em.get(h, "title")?, sold));
                }
            }
        }
        Ok(out)
    })?;
    for (title, sold) in &rows {
        ctx.emit_bytes(160);
        ctx.emit(&format!("<tr><td>{title} sold {sold}</td></tr>"));
    }
    for _ in 0..5.min(rows.len()) {
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
    let detail = ctx.facade_cached("CatalogSession.detail", &[Value::Int(item)], |em| {
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Ok(None);
        };
        let author_pk = em.get(h, "author_id")?;
        let author = match em.find("authors", author_pk)? {
            Some(a) => format!("{} {}", em.get(a, "fname")?, em.get(a, "lname")?),
            None => String::from("unknown"),
        };
        Ok(Some((
            em.get(h, "title")?,
            em.get(h, "descr")?,
            em.get(h, "cost")?,
            em.get(h, "stock")?,
            author,
        )))
    })?;
    if let Some((title, descr, cost, stock, author)) = detail {
        ctx.emit(&format!(
            "<h2>{title}</h2><p>by {author}</p><p>{descr}</p><p>${cost} ({stock} in stock)</p>"
        ));
        session.set_int("last_item", item);
        ctx.embed_asset(StaticAsset::full_image());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-5 Search Request.
fn search_request(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "Search");
    let anchor = app.random_item(rng);
    ctx.facade_cached("PromoSession.strip", &[Value::Int(anchor)], |em| {
        if let Some(a) = em.find("items", Value::Int(anchor))? {
            for rel in ["related1", "related2"] {
                let pk = em.get(a, rel)?;
                if let Some(h) = em.find("items", pk)? {
                    em.get(h, "title")?;
                }
            }
        }
        Ok(())
    })?;
    ctx.emit("<form action=\"search\"><input name=\"q\"></form>");
    page_footer(ctx);
    Ok(())
}

/// WI-6 Search Results: a subject finder plus per-item activation.
fn search_results(app: &Bookstore, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "Search Results");
    let subject = app.random_subject(rng);
    let titles = ctx.facade_cached("CatalogSession.search", &[Value::str(&subject)], |em| {
        let pks =
            em.find_pks_ordered("items", "subject", Value::str(&subject), "title", false, 50)?;
        let mut out = Vec::new();
        for pk in pks {
            if let Some(h) = em.find("items", pk)? {
                out.push(em.get(h, "title")?);
            }
        }
        Ok(out)
    })?;
    for t in &titles {
        ctx.emit_bytes(140);
        ctx.emit(&format!("<tr><td>{t}</td></tr>"));
    }
    for _ in 0..5.min(titles.len()) {
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    page_footer(ctx);
    Ok(())
}

/// WI-7 Shopping Cart.
fn shopping_cart(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Shopping Cart");
    let add = session.int("last_item").unwrap_or_else(|| app.random_item(rng));
    cart::add(session, add, rng.uniform_i64(1, 3));
    let lines = cart::lines(session);
    let details = ctx.facade("CartSession.view", |em| {
        let mut out = Vec::new();
        for (item, qty) in &lines {
            if let Some(h) = em.find("items", Value::Int(*item))? {
                out.push((em.get(h, "title")?, em.get(h, "cost")?, *qty));
            }
        }
        Ok(out)
    })?;
    let mut total = 0.0;
    for (title, cost, qty) in details {
        total += cost.as_float().unwrap_or(0.0) * qty as f64;
        ctx.emit(&format!("<tr><td>{title}</td><td>{qty}</td></tr>"));
        ctx.embed_asset(StaticAsset::thumbnail());
    }
    ctx.emit(&format!("<p>Total: ${total:.2}</p>"));
    page_footer(ctx);
    Ok(())
}

/// WI-8 Customer Registration.
fn customer_registration(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Customer Registration");
    if rng.chance(0.2) {
        let id = login(app, ctx, session, rng)?;
        let name = ctx.facade_cached("CustomerSession.reload", &[Value::Int(id)], |em| match em
            .find("customers", Value::Int(id))?
        {
            Some(h) => Ok(format!("{} {}", em.get(h, "fname")?, em.get(h, "lname")?)),
            None => Ok(String::from("unknown")),
        })?;
        ctx.emit(&format!("<p>Welcome back {name} (#{id})</p>"));
        page_footer(ctx);
        return Ok(());
    }
    let uname = format!("NC{}_{}", session.client(), rng.uniform_u64(0, u32::MAX as u64));
    let country = rng.uniform_i64(1, 92);
    let zip = format!("{:05}", rng.uniform_u64(10_000, 99_999));
    let id = ctx.facade("CustomerSession.register", |em| {
        let addr = em.create(
            "address",
            &[
                ("id", Value::Null),
                ("street", Value::str("1 NEW ST")),
                ("city", Value::str("NEWCITY")),
                ("zip", Value::str(&zip)),
                ("country_id", Value::Int(country)),
            ],
        )?;
        let cust = em.create(
            "customers",
            &[
                ("id", Value::Null),
                ("uname", Value::str(&uname)),
                ("passwd", Value::str("pw")),
                ("fname", Value::str("NEW")),
                ("lname", Value::str("CUSTOMER")),
                ("addr_id", addr),
                ("phone", Value::str("5550000000")),
                ("email", Value::str(format!("{uname}@example.com"))),
                ("since", Value::Int(BASE_DATE)),
                ("discount", Value::Float(0.1)),
            ],
        )?;
        Ok(cust.as_int().unwrap_or(0))
    })?;
    session.set_int("customer_id", id);
    ctx.emit(&format!("<p>Registered as {uname} (#{id})</p>"));
    page_footer(ctx);
    Ok(())
}

/// WI-9 Buy Request.
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
    let lines = cart::lines(session);
    let subtotal = ctx.facade("OrderSession.preview", |em| {
        let Some(c) = em.find("customers", Value::Int(cid))? else {
            return Err(AppError::Logic("customer vanished".into()));
        };
        let addr_pk = em.get(c, "addr_id")?;
        if let Some(a) = em.find("address", addr_pk)? {
            let country_pk = em.get(a, "country_id")?;
            if let Some(co) = em.find("countries", country_pk)? {
                em.get(co, "name")?;
            }
        }
        let mut subtotal = 0.0;
        for (item, qty) in &lines {
            if let Some(h) = em.find("items", Value::Int(*item))? {
                subtotal += em.get(h, "cost")?.as_float().unwrap_or(0.0) * *qty as f64;
            }
        }
        Ok(subtotal)
    })?;
    session.set("pending_subtotal", Value::Float(subtotal));
    ctx.emit(&format!("<p>Subtotal ${subtotal:.2}</p>"));
    page_footer(ctx);
    Ok(())
}

/// WI-10 Buy Confirm: the OrderSession façade creates the order graph bean
/// by bean; the EJB container's locking replaces SQL table locks (the
/// container synchronizes on the entity instances it owns).
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
    let date = BASE_DATE + rng.uniform_i64(0, 30) * DAY;
    let auth = format!("AUTH{}", rng.uniform_u64(0, 999_999));
    // Container-level entity locking (the EJB analogue of the sync
    // configurations' strategy).
    ctx.app_lock("customer", cid as u64);
    let mut stripes: Vec<i64> = lines.iter().map(|(i, _)| *i).collect();
    stripes.sort_unstable();
    for item in &stripes {
        ctx.app_lock("item", *item as u64);
    }
    let placed = ctx.facade("OrderSession.confirm", |em| {
        let Some(c) = em.find("customers", Value::Int(cid))? else {
            return Err(AppError::Logic("customer vanished".into()));
        };
        let disc = em.get(c, "discount")?.as_float().unwrap_or(0.0);
        let mut subtotal = 0.0;
        let mut item_handles = Vec::new();
        for (item, qty) in &lines {
            if let Some(h) = em.find("items", Value::Int(*item))? {
                subtotal += em.get(h, "cost")?.as_float().unwrap_or(0.0) * *qty as f64;
                item_handles.push((h, *item, *qty));
            }
        }
        let total = subtotal * (1.0 - disc) * 1.0825 + 3.0;
        let order_pk = em.create(
            "orders",
            &[
                ("id", Value::Null),
                ("customer_id", Value::Int(cid)),
                ("date", Value::Int(date)),
                ("subtotal", Value::Float(subtotal)),
                ("tax", Value::Float(subtotal * 0.0825)),
                ("total", Value::Float(total)),
                ("ship_type", Value::str("AIR")),
                ("ship_date", Value::Int(date + 3 * DAY)),
                ("status", Value::str("PENDING")),
            ],
        )?;
        for (h, _item, qty) in &item_handles {
            em.create(
                "order_line",
                &[
                    ("id", Value::Null),
                    ("order_id", order_pk.clone()),
                    ("item_id", em.pk(*h).clone()),
                    ("qty", Value::Int(*qty)),
                    ("discount", Value::Float(disc)),
                    ("comment", Value::str("OK")),
                ],
            )?;
            let stock = em.get(*h, "stock")?.as_int().unwrap_or(0);
            em.set(*h, "stock", Value::Int(stock - qty))?;
        }
        em.create(
            "credit_info",
            &[
                ("id", Value::Null),
                ("order_id", order_pk.clone()),
                ("cc_type", Value::str("VISA")),
                ("cc_num", Value::str("4111111111111111")),
                ("cc_name", Value::str("CARD HOLDER")),
                ("cc_expiry", Value::Int(date + 365 * DAY)),
                ("auth_id", Value::str(&auth)),
                ("amount", Value::Float(total)),
                ("date", Value::Int(date)),
            ],
        )?;
        Ok((order_pk.as_int().unwrap_or(0), total))
    });
    for item in stripes.iter().rev() {
        ctx.app_unlock("item", *item as u64);
    }
    ctx.app_unlock("customer", cid as u64);
    let (order_id, total) = placed?;
    session.set_int("last_order", order_id);
    cart::clear(session);
    ctx.emit(&format!("<p>Order placed, total ${total:.2}</p>"));
    page_footer(ctx);
    Ok(())
}

/// WI-11 Order Inquiry.
fn order_inquiry(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Order Inquiry");
    let cid = login(app, ctx, session, rng)?;
    let uname = ctx.facade_cached("CustomerSession.uname", &[Value::Int(cid)], |em| {
        match em.find("customers", Value::Int(cid))? {
            Some(h) => Ok(em.get(h, "uname")?.to_string()),
            None => Ok(String::new()),
        }
    })?;
    ctx.emit(&format!("<form><input name=\"customer\" value=\"{uname}\"></form>"));
    page_footer(ctx);
    Ok(())
}

/// WI-12 Order Display.
fn order_display(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Order Display");
    let cid = login(app, ctx, session, rng)?;
    let display = ctx.facade("OrderSession.lastOrder", |em| {
        let pks = em.find_pks_ordered("orders", "customer_id", Value::Int(cid), "id", true, 1)?;
        let Some(order_pk) = pks.into_iter().next() else {
            return Ok(None);
        };
        let Some(o) = em.find("orders", order_pk.clone())? else {
            return Ok(None);
        };
        let status = em.get(o, "status")?;
        let total = em.get(o, "total")?;
        let line_pks = em.find_pks_where("order_line", "order_id", order_pk.clone())?;
        let mut lines = Vec::new();
        for lp in line_pks {
            if let Some(l) = em.find("order_line", lp)? {
                let item_pk = em.get(l, "item_id")?;
                let qty = em.get(l, "qty")?;
                if let Some(i) = em.find("items", item_pk)? {
                    lines.push((em.get(i, "title")?, qty));
                }
            }
        }
        let cc_pks = em.find_pks_where("credit_info", "order_id", order_pk.clone())?;
        let mut paid = None;
        if let Some(cp) = cc_pks.into_iter().next() {
            if let Some(ci) = em.find("credit_info", cp)? {
                paid = Some((em.get(ci, "cc_type")?, em.get(ci, "amount")?));
            }
        }
        Ok(Some((order_pk, status, total, lines, paid)))
    })?;
    match display {
        None => ctx.emit("<p>No orders on file.</p>"),
        Some((order_pk, status, total, lines, paid)) => {
            ctx.emit(&format!("<p>Order #{order_pk} status {status} total ${total}</p>"));
            for (title, qty) in lines {
                ctx.emit(&format!("<tr><td>{qty} x {title}</td></tr>"));
            }
            if let Some((cc, amount)) = paid {
                ctx.emit(&format!("<p>Paid by {cc} (${amount})</p>"));
            }
        }
    }
    page_footer(ctx);
    Ok(())
}

/// WI-13 Admin Request.
fn admin_request(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Admin Request");
    let item = app.random_item(rng);
    session.set_int("admin_item", item);
    let detail = ctx.facade("AdminSession.show", |em| {
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Ok(None);
        };
        Ok(Some((em.get(h, "title")?, em.get(h, "cost")?)))
    })?;
    if let Some((title, cost)) = detail {
        ctx.emit(&format!("<form><p>{title} cost ${cost}</p></form>"));
    }
    page_footer(ctx);
    Ok(())
}

/// WI-14 Admin Confirm: walk the customer's recent co-purchases bean by
/// bean and store new related items.
fn admin_confirm(
    app: &Bookstore,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "Admin Confirm");
    let item = session.int("admin_item").unwrap_or_else(|| app.random_item(rng));
    let new_cost = rng.uniform_i64(100, 9999) as f64 / 100.0;
    let fill: Vec<i64> = (0..5).map(|_| app.random_item(rng)).collect();
    ctx.app_lock("item", item as u64);
    let result = ctx.facade("AdminSession.update", |em| {
        // Orders containing this item, then their sibling lines.
        let line_pks = em.find_pks_query_tail(
            "order_line",
            "WHERE item_id = ? LIMIT 20",
            &[Value::Int(item)],
        )?;
        let mut tally: HashMap<i64, i64> = HashMap::new();
        for lp in line_pks {
            let Some(l) = em.find("order_line", lp)? else { continue };
            let order_pk = em.get(l, "order_id")?;
            let siblings = em.find_pks_where("order_line", "order_id", order_pk)?;
            for sp in siblings {
                if let Some(s) = em.find("order_line", sp)? {
                    let other = em.get(s, "item_id")?.as_int().unwrap_or(0);
                    if other != item {
                        *tally.entry(other).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<(i64, i64)> = tally.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut rel: Vec<i64> = ranked.into_iter().take(5).map(|(i, _)| i).collect();
        for f in &fill {
            if rel.len() >= 5 {
                break;
            }
            rel.push(*f);
        }
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Err(AppError::Logic("item vanished".into()));
        };
        em.set(h, "cost", Value::Float(new_cost))?;
        em.set(h, "pub_date", Value::Int(BASE_DATE))?;
        for (i, r) in rel.iter().enumerate() {
            em.set(h, &format!("related{}", i + 1), Value::Int(*r))?;
        }
        Ok(())
    });
    ctx.app_unlock("item", item as u64);
    result?;
    ctx.emit(&format!("<p>Item {item} updated.</p>"));
    page_footer(ctx);
    Ok(())
}
