//! Entity-bean implementations of the 26 auction interactions — the EJB
//! architecture. Presentation stays in the servlet tier (`ctx.emit`);
//! business logic runs in session façades over RMI; persistence is entity
//! beans with container-managed persistence, activating one bean per row
//! (the N+1 pattern). This is the implementation whose flood of short
//! queries and RMI crossings caps the paper's EJB configuration at ~40% of
//! PHP's throughput on the bidding mix.

use crate::app::{Auction, Interaction};
use crate::populate::{BASE_DATE, DAY};
use crate::sql_logic::{LIST_THUMBNAILS, PAGE_SIZE};
use dynamid_core::{AppError, AppResult, RequestCtx, SessionData, StaticAsset};
use dynamid_sim::SimRng;
use dynamid_sqldb::Value;

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
    ctx.emit_bytes(1_800);
    ctx.embed_asset(StaticAsset::button());
    ctx.embed_asset(StaticAsset::button());
    ctx.embed_asset(StaticAsset::button());
}

fn page_footer(ctx: &mut RequestCtx<'_>) {
    ctx.emit_bytes(600);
    ctx.emit("</body></html>");
}

fn focus_item(app: &Auction, session: &mut SessionData, rng: &mut SimRng) -> i64 {
    session.int("item_id").unwrap_or_else(|| app.random_item(rng))
}

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
    let id = ctx.facade("UserSession.authenticate", |em| {
        let pks = em.find_pks_where("users", "nickname", Value::str(&nick))?;
        let pk =
            pks.into_iter().next().ok_or_else(|| AppError::Logic(format!("no user '{nick}'")))?;
        let h =
            em.find("users", pk.clone())?.ok_or_else(|| AppError::Logic("user vanished".into()))?;
        em.get(h, "password")?;
        Ok(pk.as_int().unwrap_or(0))
    })?;
    session.set_int("user_id", id);
    Ok(id)
}

/// Lists every category bean (the container activates all 40 one by one).
fn emit_categories(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
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
    Ok(())
}

fn emit_regions(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    let names = ctx.facade("RegionSession.list", |em| {
        let pks = em.find_pks_query_tail("regions", "ORDER BY id", &[])?;
        let mut names = Vec::new();
        for pk in pks {
            if let Some(h) = em.find("regions", pk)? {
                names.push(em.get(h, "name")?);
            }
        }
        Ok(names)
    })?;
    for n in names {
        ctx.emit(&format!("<a>{n}</a><br>"));
    }
    Ok(())
}

/// Item-listing rows fetched through a finder + per-item activation.
type ItemRow = (Value, Value, Value, Value);

fn emit_item_list(ctx: &mut RequestCtx<'_>, rows: &[ItemRow]) {
    for (id, name, max_bid, nb) in rows {
        ctx.emit_bytes(220);
        ctx.emit(&format!(
            "<tr><td><a href=\"item?id={id}\">{name}</a></td><td>{max_bid}</td><td>{nb}</td></tr>"
        ));
    }
    for _ in 0..LIST_THUMBNAILS.min(rows.len()) {
        ctx.embed_asset(StaticAsset::thumbnail());
    }
}

fn home(ctx: &mut RequestCtx<'_>) -> AppResult<()> {
    page_header(ctx, "Auction Home");
    emit_categories(ctx)?;
    ctx.embed_asset(StaticAsset::full_image());
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
    let region = app.random_region(rng);
    let created = ctx.facade("UserSession.register", |em| {
        if !em.find_pks_where("users", "nickname", Value::str(&nick))?.is_empty() {
            return Ok(None);
        }
        let pk = em.create(
            "users",
            &[
                ("id", Value::Null),
                ("firstname", Value::str("NEW")),
                ("lastname", Value::str("USER")),
                ("nickname", Value::str(&nick)),
                ("password", Value::str("pw")),
                ("email", Value::str(format!("{nick}@example.com"))),
                ("rating", Value::Int(0)),
                ("balance", Value::Float(0.0)),
                ("creation_date", Value::Int(BASE_DATE)),
                ("region", Value::Int(region)),
            ],
        )?;
        // The ids bookkeeping entity.
        if let Some(h) = em.find("ids", Value::Int(1))? {
            let v = em.get(h, "value")?.as_int().unwrap_or(0);
            em.set(h, "value", Value::Int(v + 1))?;
        }
        Ok(Some(pk.as_int().unwrap_or(0)))
    })?;
    match created {
        Some(id) => {
            session.set_int("user_id", id);
            ctx.emit(&format!("<p>Welcome {nick} (#{id})</p>"));
        }
        None => ctx.emit("<p>Nickname taken.</p>"),
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
    let rows = ctx.facade("QuerySession.itemsInCategory", |em| {
        let pks = em.find_pks_query_tail(
            "items",
            &format!(
                "WHERE category = ? AND end_date >= ? ORDER BY end_date ASC LIMIT {PAGE_SIZE}"
            ),
            &[Value::Int(category), Value::Int(BASE_DATE)],
        )?;
        let mut rows: Vec<ItemRow> = Vec::new();
        for pk in pks {
            if let Some(h) = em.find("items", pk.clone())? {
                rows.push((
                    pk,
                    em.get(h, "name")?,
                    em.get(h, "max_bid")?,
                    em.get(h, "nb_of_bids")?,
                ));
            }
        }
        Ok(rows)
    })?;
    if let Some((id, ..)) = rows.first() {
        if let Some(id) = id.as_int() {
            session.set_int("item_id", id);
        }
    }
    emit_item_list(ctx, &rows);
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
    ctx.facade("RegionSession.load", |em| {
        em.find("regions", Value::Int(region))?;
        Ok(())
    })?;
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
    // CMP has no joins: the façade filters item beans by their seller
    // bean's region, activating sellers one at a time.
    let rows = ctx.facade("QuerySession.itemsInRegion", |em| {
        let pks = em.find_pks_query_tail(
            "items",
            &format!(
                "WHERE category = ? AND end_date >= ? ORDER BY end_date ASC LIMIT {}",
                PAGE_SIZE * 3
            ),
            &[Value::Int(category), Value::Int(BASE_DATE)],
        )?;
        let mut rows: Vec<ItemRow> = Vec::new();
        for pk in pks {
            if rows.len() as u64 >= PAGE_SIZE {
                break;
            }
            let Some(h) = em.find("items", pk.clone())? else { continue };
            let seller_pk = em.get(h, "seller")?;
            let Some(s) = em.find("users", seller_pk)? else { continue };
            if em.get(s, "region")?.as_int() == Some(region) {
                rows.push((
                    pk,
                    em.get(h, "name")?,
                    em.get(h, "max_bid")?,
                    em.get(h, "nb_of_bids")?,
                ));
            }
        }
        Ok(rows)
    })?;
    emit_item_list(ctx, &rows);
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
    let detail = ctx.facade("ItemSession.view", |em| {
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Ok(None);
        };
        let seller_pk = em.get(h, "seller")?;
        let seller = match em.find("users", seller_pk)? {
            Some(s) => format!("{} (rating {})", em.get(s, "nickname")?, em.get(s, "rating")?),
            None => "unknown".into(),
        };
        Ok(Some((
            em.get(h, "name")?,
            em.get(h, "description")?,
            em.get(h, "max_bid")?,
            em.get(h, "nb_of_bids")?,
            em.get(h, "end_date")?,
            seller,
        )))
    })?;
    match detail {
        Some((name, descr, max_bid, nb, end, seller)) => {
            ctx.emit(&format!(
                "<h2>{name}</h2><p>{descr}</p><p>current bid {max_bid} ({nb} bids), ends {end}</p><p>Seller {seller}</p>"
            ));
            ctx.embed_asset(StaticAsset::full_image());
        }
        None => ctx.emit("<p>This item is no longer for sale.</p>"),
    }
    page_footer(ctx);
    Ok(())
}

fn view_user_info(app: &Auction, ctx: &mut RequestCtx<'_>, rng: &mut SimRng) -> AppResult<()> {
    page_header(ctx, "User Information");
    let user = app.random_user(rng);
    let info = ctx.facade("UserSession.info", |em| {
        let Some(h) = em.find("users", Value::Int(user))? else {
            return Ok(None);
        };
        let head = format!("{} (rating {})", em.get(h, "nickname")?, em.get(h, "rating")?);
        let pks =
            em.find_pks_ordered("comments", "to_user_id", Value::Int(user), "date", true, 25)?;
        let mut comments = Vec::new();
        for pk in pks {
            if let Some(c) = em.find("comments", pk)? {
                let from_pk = em.get(c, "from_user_id")?;
                let from = match em.find("users", from_pk)? {
                    Some(u) => em.get(u, "nickname")?.to_string(),
                    None => "?".into(),
                };
                comments.push((from, em.get(c, "comment")?));
            }
        }
        Ok(Some((head, comments)))
    })?;
    if let Some((head, comments)) = info {
        ctx.emit(&format!("<h2>{head}</h2>"));
        for (from, text) in comments {
            ctx.emit_bytes(120);
            ctx.emit(&format!("<tr><td>{from}: {text}</td></tr>"));
        }
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
    let history = ctx.facade("BidSession.history", |em| {
        let name = match em.find("items", Value::Int(item))? {
            Some(h) => em.get(h, "name")?.to_string(),
            None => String::from("(closed)"),
        };
        let pks = em.find_pks_ordered("bids", "item_id", Value::Int(item), "bid", true, 25)?;
        let mut rows = Vec::new();
        for pk in pks {
            if let Some(b) = em.find("bids", pk)? {
                let bidder_pk = em.get(b, "user_id")?;
                let bidder = match em.find("users", bidder_pk)? {
                    Some(u) => em.get(u, "nickname")?.to_string(),
                    None => "?".into(),
                };
                rows.push((bidder, em.get(b, "bid")?));
            }
        }
        Ok((name, rows))
    })?;
    ctx.emit(&format!("<h2>Bids on {}</h2>", history.0));
    for (bidder, bid) in history.1 {
        ctx.emit_bytes(90);
        ctx.emit(&format!("<tr><td>{bidder} bid {bid}</td></tr>"));
    }
    page_footer(ctx);
    Ok(())
}

fn auth_form(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
    target: &str,
) -> AppResult<()> {
    page_header(ctx, &format!("{target} — authentication"));
    let uid = login(app, ctx, session, rng)?;
    // Stateless re-verification via the user bean, as in the SQL version.
    ctx.facade("UserSession.verify", |em| {
        if let Some(h) = em.find("users", Value::Int(uid))? {
            em.get(h, "password")?;
        }
        Ok(())
    })?;
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
    let detail = ctx.facade("ItemSession.buyNowPrice", |em| {
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Ok(None);
        };
        let seller_pk = em.get(h, "seller")?;
        let seller = match em.find("users", seller_pk)? {
            Some(s) => em.get(s, "nickname")?.to_string(),
            None => "?".into(),
        };
        Ok(Some((em.get(h, "name")?, em.get(h, "buy_now")?, seller)))
    })?;
    if let Some((name, price, seller)) = detail {
        ctx.emit(&format!("<p>Buy {name} now for {price} from {seller}</p>"));
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
    ctx.app_lock("item", item as u64);
    let result = ctx.facade("BuySession.buyNow", |em| {
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Ok(false);
        };
        let have = em.get(h, "quantity")?.as_int().unwrap_or(0);
        let left = (have - qty).max(0);
        em.set(h, "quantity", Value::Int(left))?;
        if left == 0 {
            em.set(h, "end_date", Value::Int(BASE_DATE))?;
        }
        em.create(
            "buy_now",
            &[
                ("id", Value::Null),
                ("buyer_id", Value::Int(uid)),
                ("item_id", Value::Int(item)),
                ("qty", Value::Int(qty)),
                ("date", Value::Int(BASE_DATE)),
            ],
        )?;
        Ok(true)
    });
    ctx.app_unlock("item", item as u64);
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
    let detail = ctx.facade("BidSession.prepare", |em| {
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Ok(None);
        };
        // Recent bids activated for the history strip.
        let pks = em.find_pks_ordered("bids", "item_id", Value::Int(item), "bid", true, 5)?;
        let mut top = Vec::new();
        for pk in pks {
            if let Some(b) = em.find("bids", pk)? {
                top.push(em.get(b, "bid")?);
            }
        }
        Ok(Some((em.get(h, "name")?, em.get(h, "max_bid")?, top)))
    })?;
    if let Some((name, max_bid, top)) = detail {
        ctx.emit(&format!("<p>Bid on {name}: current {max_bid}</p>"));
        for b in top {
            ctx.emit(&format!("<i>{b}</i>"));
        }
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
    let bump = rng.uniform_i64(50, 500) as f64 / 100.0;
    ctx.app_lock("item", item as u64);
    let result = ctx.facade("BidSession.store", |em| {
        let Some(h) = em.find("items", Value::Int(item))? else {
            return Ok(false);
        };
        let current = em
            .get(h, "max_bid")?
            .as_float()
            .filter(|b| *b > 0.0)
            .or_else(|| em.get(h, "initial_price").ok().and_then(|v| v.as_float()))
            .unwrap_or(1.0);
        let bid = current + bump;
        em.create(
            "bids",
            &[
                ("id", Value::Null),
                ("user_id", Value::Int(uid)),
                ("item_id", Value::Int(item)),
                ("qty", Value::Int(1)),
                ("bid", Value::Float(bid)),
                ("max_bid", Value::Float(bid * 1.1)),
                ("date", Value::Int(BASE_DATE)),
            ],
        )?;
        let nb = em.get(h, "nb_of_bids")?.as_int().unwrap_or(0);
        em.set(h, "max_bid", Value::Float(bid))?;
        em.set(h, "nb_of_bids", Value::Int(nb + 1))?;
        Ok(true)
    });
    ctx.app_unlock("item", item as u64);
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
    let detail = ctx.facade("CommentSession.prepare", |em| {
        let user = match em.find("users", Value::Int(to))? {
            Some(u) => em.get(u, "nickname")?.to_string(),
            None => "?".into(),
        };
        let item_name = match em.find("items", Value::Int(item))? {
            Some(i) => em.get(i, "name")?.to_string(),
            None => "(closed)".into(),
        };
        Ok((user, item_name))
    })?;
    ctx.emit(&format!("<form><p>Comment on {} about {}</p></form>", detail.0, detail.1));
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
    let text = rng.ascii_string(40);
    ctx.app_lock("user", to as u64);
    let result = ctx.facade("CommentSession.store", |em| {
        em.create(
            "comments",
            &[
                ("id", Value::Null),
                ("from_user_id", Value::Int(uid)),
                ("to_user_id", Value::Int(to)),
                ("item_id", Value::Int(item)),
                ("rating", Value::Int(rating)),
                ("date", Value::Int(BASE_DATE)),
                ("comment", Value::str(&text)),
            ],
        )?;
        if let Some(u) = em.find("users", Value::Int(to))? {
            let r = em.get(u, "rating")?.as_int().unwrap_or(0);
            em.set(u, "rating", Value::Int(r + rating))?;
        }
        Ok(())
    });
    ctx.app_unlock("user", to as u64);
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
    let name = ctx.facade("CategorySession.load", |em| {
        match em.find("categories", Value::Int(category))? {
            Some(h) => Ok(em.get(h, "name")?.to_string()),
            None => Ok(String::new()),
        }
    })?;
    ctx.emit(&format!("<form><p>List an item in {name}</p><input name=\"name\"></form>"));
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
    let name = format!("ITEM {}", rng.ascii_string(14));
    let descr = rng.ascii_string(60);
    let end = BASE_DATE + rng.uniform_i64(1, 7) * DAY;
    let id = ctx.facade("SellSession.registerItem", |em| {
        let pk = em.create(
            "items",
            &[
                ("id", Value::Null),
                ("name", Value::str(&name)),
                ("description", Value::str(&descr)),
                ("initial_price", Value::Float(price)),
                ("quantity", Value::Int(rng_free_qty(price))),
                ("reserve_price", Value::Float(price * 1.1)),
                ("buy_now", Value::Float(price * 1.5)),
                ("nb_of_bids", Value::Int(0)),
                ("max_bid", Value::Float(0.0)),
                ("start_date", Value::Int(BASE_DATE)),
                ("end_date", Value::Int(end)),
                ("seller", Value::Int(uid)),
                ("category", Value::Int(category)),
            ],
        )?;
        if let Some(h) = em.find("ids", Value::Int(2))? {
            let v = em.get(h, "value")?.as_int().unwrap_or(0);
            em.set(h, "value", Value::Int(v + 1))?;
        }
        Ok(pk.as_int().unwrap_or(0))
    })?;
    session.set_int("item_id", id);
    ctx.emit(&format!("<p>Item #{id} listed (auction open for a week).</p>"));
    page_footer(ctx);
    Ok(())
}

/// Deterministic small quantity derived from the price (keeps the façade
/// closure free of `&mut rng` borrows).
fn rng_free_qty(price: f64) -> i64 {
    (price as i64 % 9) + 1
}

fn about_me(
    app: &Auction,
    ctx: &mut RequestCtx<'_>,
    session: &mut SessionData,
    rng: &mut SimRng,
) -> AppResult<()> {
    page_header(ctx, "About Me");
    let uid = login(app, ctx, session, rng)?;
    let report = ctx.facade("UserSession.aboutMe", |em| {
        let head = match em.find("users", Value::Int(uid))? {
            Some(h) => format!("{} (rating {})", em.get(h, "nickname")?, em.get(h, "rating")?),
            None => "?".into(),
        };
        // Bids with their item beans.
        let bid_pks = em.find_pks_ordered("bids", "user_id", Value::Int(uid), "date", true, 20)?;
        let mut bid_lines = Vec::new();
        for pk in bid_pks {
            if let Some(b) = em.find("bids", pk)? {
                let item_pk = em.get(b, "item_id")?;
                if let Some(i) = em.find("items", item_pk)? {
                    bid_lines.push((em.get(b, "bid")?, em.get(i, "name")?));
                }
            }
        }
        // Items being sold.
        let sell_pks = em.find_pks_where("items", "seller", Value::Int(uid))?;
        let mut selling = Vec::new();
        for pk in sell_pks.into_iter().take(20) {
            if let Some(i) = em.find("items", pk)? {
                selling.push((em.get(i, "name")?, em.get(i, "max_bid")?));
            }
        }
        // Purchases.
        let buy_pks = em.find_pks_where("buy_now", "buyer_id", Value::Int(uid))?;
        let mut bought = Vec::new();
        for pk in buy_pks.into_iter().take(20) {
            if let Some(b) = em.find("buy_now", pk)? {
                bought.push(em.get(b, "item_id")?);
            }
        }
        // Feedback.
        let c_pks =
            em.find_pks_ordered("comments", "to_user_id", Value::Int(uid), "date", true, 10)?;
        let mut feedback = Vec::new();
        for pk in c_pks {
            if let Some(c) = em.find("comments", pk)? {
                feedback.push(em.get(c, "comment")?);
            }
        }
        Ok((head, bid_lines, selling, bought, feedback))
    })?;
    let (head, bids, selling, bought, feedback) = report;
    ctx.emit(&format!("<h2>{head}</h2>"));
    for (bid, name) in bids {
        ctx.emit_bytes(130);
        ctx.emit(&format!("<tr><td>bid {bid} on {name}</td></tr>"));
    }
    for (name, max_bid) in selling {
        ctx.emit_bytes(130);
        ctx.emit(&format!("<tr><td>selling {name} at {max_bid}</td></tr>"));
    }
    for item in bought {
        ctx.emit_bytes(80);
        ctx.emit(&format!("<tr><td>bought item {item}</td></tr>"));
    }
    for text in feedback {
        ctx.emit_bytes(110);
        ctx.emit(&format!("<tr><td>{text}</td></tr>"));
    }
    page_footer(ctx);
    Ok(())
}
