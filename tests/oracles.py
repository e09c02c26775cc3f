"""Independent brute-force oracles shared by unit and acceptance tests.

Everything here is written the slow, literal way on purpose: plain loops over
definitions, no shared code with the package implementations.
"""
import itertools
import json
import math

import numpy as np

from ihasearch import genome as gn
from ihasearch.hwcost import profile_layer


def brute_kendall_tau_b(pred, truth):
    """Pairwise concordance count with the tie-corrected denominator."""
    n = len(pred)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (pred[i] - pred[j]) * (truth[i] - truth[j])
            if a > 0:
                conc += 1
            elif a < 0:
                disc += 1
    n0 = n * (n - 1) // 2

    def tie_term(v):
        seen = {}
        for x in v:
            seen[x] = seen.get(x, 0) + 1
        return sum(c * (c - 1) // 2 for c in seen.values())

    denom = math.sqrt((n0 - tie_term(pred)) * (n0 - tie_term(truth)))
    return (conc - disc) / denom


def midranks(v):
    order = sorted(range(len(v)), key=lambda i: v[i])
    ranks = [0.0] * len(v)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        r = (i + j) / 2 + 1  # 1-based mid-rank of the tied block
        for k in range(i, j + 1):
            ranks[order[k]] = r
        i = j + 1
    return ranks


def brute_spearman_rho(pred, truth):
    rp, rt = midranks(list(pred)), midranks(list(truth))
    return float(np.corrcoef(rp, rt)[0, 1])


def true_top_indices(truth, x):
    m = math.ceil(x * len(truth))
    pairs = sorted((t, i) for i, t in enumerate(truth))
    return [i for _, i in pairs[:m]]


def brute_k_at_x(pred, truth, x):
    """Literal definition: grow k until the predicted top-k covers the set."""
    top = set(true_top_indices(truth, x))
    pred_order = [i for _, i in sorted((p, i) for i, p in enumerate(pred))]
    for k in range(1, len(pred) + 1):
        if top.issubset(pred_order[:k]):
            return k
    raise AssertionError("unreachable")


def brute_mae_at_top(pred, truth, x):
    sel = true_top_indices(truth, x)
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.abs(pred[sel] - truth[sel]).mean())


def brute_dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def brute_pareto_front(points):
    """Double loop over all ordered pairs."""
    out = []
    for j, p in enumerate(points):
        if not any(brute_dominates(q, p) for i, q in enumerate(points) if i != j):
            out.append(j)
    return out


def brute_nondominated_sort(points):
    """Peel fronts by repeated brute_pareto_front over the remainder."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        sub = [points[i] for i in remaining]
        keep = brute_pareto_front(sub)
        front = [remaining[k] for k in keep]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def brute_constrained_dominates(a, b):
    """Constraint domination of (values, feasible, violation) triples, case
    by case: feasible beats infeasible, two infeasible points compare by
    violation, two feasible points by plain domination."""
    (av, af, aviol), (bv, bf, bviol) = a, b
    if af and bf:
        return brute_dominates(av, bv)
    if af and not bf:
        return True
    if bf and not af:
        return False
    return aviol < bviol


def reference_constraint_dominance_matrix(values, feasible, violation):
    """The broadcast kernel ``metrics.constraint_dominance_matrix`` was
    before it compared one objective at a time: (n, n, m) comparisons
    reduced along the objective axis."""
    le = (values[:, None, :] <= values[None, :, :]).all(axis=2)
    lt = (values[:, None, :] < values[None, :, :]).any(axis=2)
    fi, fj = feasible[:, None], feasible[None, :]
    lower_violation = violation[:, None] < violation[None, :]
    return (fi & fj & le & lt) | (fi & ~fj) | (~fi & ~fj & lower_violation)


def brute_constrained_sort(points):
    """Peel fronts of (values, feasible, violation) triples: each front is
    every remaining point that no other remaining point dominates."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [
            j for j in remaining
            if not any(brute_constrained_dominates(points[i], points[j])
                       for i in remaining if i != j)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def brute_crowding(values):
    """Per-objective neighbour gaps over the objective's span; both ends of
    each stable order get +inf; spans that are zero or not finite add
    nothing; fronts of one or two points are all +inf."""
    n = len(values)
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    for j in range(len(values[0])):
        order = sorted(range(n), key=lambda i: values[i][j])
        lo, hi = values[order[0]][j], values[order[-1]][j]
        dist[order[0]] = dist[order[-1]] = math.inf
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            continue
        for k in range(1, n - 1):
            i = order[k]
            dist[i] = dist[i] + (values[order[k + 1]][j] - values[order[k - 1]][j]) / (hi - lo)
    return dist


def brute_survival(points, n_keep):
    """Whole fronts while they fit; the front that overflows keeps its
    largest crowding distances, ties by ascending index."""
    if n_keep >= len(points):
        return list(range(len(points)))
    kept = []
    for front in brute_constrained_sort(points):
        if len(kept) + len(front) <= n_keep:
            kept += front
            if len(kept) == n_keep:
                break
            continue
        crowd = brute_crowding([points[i][0] for i in front])
        ranked = sorted(range(len(front)), key=lambda k: (-crowd[k], front[k]))
        kept += [front[k] for k in ranked[: n_keep - len(kept)]]
        break
    return kept


def brute_repair(genome, ranges):
    """Literal grid projection of every field of every gene, written out
    without the package's helpers; returns (global, layers) as plain int
    tuples in LayerGene field order."""
    g = genome.global_cfg
    max_layers = max(1, g.max_layers)
    glob = (max(1, g.d_model), max(1, g.block_size), max_layers)

    def nearest(x, fr):
        points = list(range(fr.lo, fr.hi + 1, fr.step))
        # smallest distance, ties to the smaller grid value
        return min(points, key=lambda p: (abs(p - int(x)), p))

    def fix(gene):
        n_h = nearest(gene.n_h, ranges.n_h)
        cap = nearest(gene.n_kv, ranges.n_kv)
        # positive divisors of n_h on the n_kv grid; the largest <= cap, else
        # the smallest
        kv_grid = range(ranges.n_kv.lo, ranges.n_kv.hi + 1, ranges.n_kv.step)
        divisors = [d for d in kv_grid if d >= 1 and n_h % d == 0]
        below = [d for d in divisors if d <= cap]
        return (
            1 if gene.mask >= 1 else 0,
            1 if gene.attn >= 1 else 0,
            n_h,
            max(below) if below else min(divisors),
            nearest(gene.d_qk, ranges.d_qk),
            nearest(gene.d_v, ranges.d_v),
            nearest(gene.d_mlp, ranges.d_mlp),
        )

    layers = [fix(gene) for gene in genome.layers[:max_layers]]
    while len(layers) < max_layers:
        layers.append((0, 1, ranges.n_h.lo, ranges.n_kv.lo, ranges.d_qk.lo,
                       ranges.d_v.lo, ranges.d_mlp.lo))
    if not any(layer[0] == 1 for layer in layers):
        layers[0] = (1,) + layers[0][1:]
    return glob, tuple(layers)


def brute_hypervolume_2d(points, ref):
    """Inclusion-exclusion over box intersections."""
    boxes = [p for p in points if p[0] < ref[0] and p[1] < ref[1]]
    total = 0.0
    for r in range(1, len(boxes) + 1):
        for sub in itertools.combinations(boxes, r):
            f1 = max(p[0] for p in sub)
            f2 = max(p[1] for p in sub)
            vol = (ref[0] - f1) * (ref[1] - f2)
            total += vol if r % 2 == 1 else -vol
    return total


def brute_partitions(n):
    """All contiguous partitions of range(n) via cut bitmasks."""
    for cuts in range(1 << max(0, n - 1)):
        stages = []
        start = 0
        for pos in range(n - 1):
            if cuts >> pos & 1:
                stages.append(list(range(start, pos + 1)))
                start = pos + 1
        stages.append(list(range(start, n)))
        yield stages


def brute_best_bottleneck(profiles, w_cap, k_cap, a_cap, t_ctx, n_chips_max):
    """Exhaustive minimum over contiguous partitions of the max stage ops.

    profiles: list of (w, kappa, o, a) tuples. Returns (bottleneck, partition)
    or None when no partition satisfies the caps.
    """
    best = None
    for stages in brute_partitions(len(profiles)):
        if len(stages) > n_chips_max:
            continue
        ok = True
        worst = 0
        for stage in stages:
            w = sum(profiles[i][0] for i in stage)
            k = sum(profiles[i][1] * t_ctx for i in stage)
            o = sum(profiles[i][2] for i in stage)
            if w > w_cap or k > k_cap or any(profiles[i][3] > a_cap for i in stage):
                ok = False
                break
            worst = max(worst, o)
        if ok and (best is None or worst < best[0]):
            best = (worst, stages)
    return best


def bottleneck_ops(profiles, partition):
    """Largest per-stage decode-ops total of a partition (LayerProfile
    list): the token-pipeline bottleneck."""
    return max(sum(profiles[i].decode_ops for i in stage) for stage in partition)


def reference_greedy_partition(profiles, limits, ops_budget):
    """The greedy contiguous scan written out on its own: check each layer
    alone against the chip, then extend the open stage while the weight, KV
    and ops sums fit, else open a new one (LayerProfile list, StageLimits)."""
    stages, current = [], []
    w = k = o = 0.0
    for i, p in enumerate(profiles):
        dk = p.kv_bytes_per_token * limits.ctx_tokens
        if (p.weight_bytes > limits.weight_cap or dk > limits.kv_cap
                or p.decode_ops > ops_budget or p.act_bytes > limits.act_cap):
            return None
        if (w + p.weight_bytes <= limits.weight_cap and k + dk <= limits.kv_cap
                and o + p.decode_ops <= ops_budget):
            current.append(i)
            w, k, o = w + p.weight_bytes, k + dk, o + p.decode_ops
        else:
            stages.append(current)
            current = [i]
            w, k, o = p.weight_bytes, dk, p.decode_ops
    if current:
        stages.append(current)
    return stages


def _reference_greedy_starts(layers, limits, ops_budget, n_stages_max):
    """The greedy scan of ``balanced_contiguous_pack`` before the bid walk:
    each stage's first layer, or None when some layer alone exceeds the
    weight, KV or ops budget or the scan opens more than n_stages_max
    stages.  Sums start at the int 0, so int ops add exactly."""
    weight_cap, kv_cap = limits.weight_cap, limits.kv_cap
    starts = [0]
    w = k = o = 0
    for i, (dw, dk, do) in enumerate(layers):
        if w + dw <= weight_cap and k + dk <= kv_cap and o + do <= ops_budget:
            w, k, o = w + dw, k + dk, o + do
            continue
        if dw > weight_cap or dk > kv_cap or do > ops_budget or len(starts) >= n_stages_max:
            return None
        starts.append(i)
        w, k, o = dw, dk, do
    return starts


def reference_candidate_budgets(ops):
    """The distinct sums of contiguous runs of ops that are at least the
    largest element, each added from the run's first element, ascending."""
    floor = max(ops)
    sums = set()
    for start in range(len(ops)):
        sums.update(itertools.accumulate(ops[start:]))
    return tuple(sorted(b for b in sums if b >= floor))


def reference_balanced_pack(profiles, limits, n_chips_max):
    """``balanced_contiguous_pack`` as a bisection over every candidate
    budget, in the manner of Pinar & Aykanat (2004): the smallest feasible
    contiguous-run sum, then the stage starts of the scan at it (LayerProfile
    list, StageLimits).  Without the candidate memo or the short-model rule,
    neither of which changed an answer."""
    layers = [(p.weight_bytes, p.kv_bytes_per_token * limits.ctx_tokens, p.decode_ops)
              for p in profiles]
    for prof, (w, k, _) in zip(profiles, layers):
        if w > limits.weight_cap or k > limits.kv_cap or prof.act_bytes > limits.act_cap:
            return None
    budgets = reference_candidate_budgets(tuple(o for _, _, o in layers))
    lo, hi = 0, len(budgets) - 1
    starts = None
    while lo <= hi:
        mid = (lo + hi) // 2
        probe = _reference_greedy_starts(layers, limits, budgets[mid], n_chips_max)
        if probe is not None:
            starts, hi = probe, mid - 1
        else:
            lo = mid + 1
    if starts is None:
        return None
    return [list(range(a, b)) for a, b in zip(starts, starts[1:] + [len(layers)])]


# --- full-length encoder reference --------------------------------------------
# The encoder's forward and backward as they were before the active-length
# trim, copied literally: every batch runs at its padded length L.  The
# encoder, which runs each row at its own active length, must reproduce these
# bytes exactly (see the encoder module docstring for why it can).

_ENC_LN_EPS = 1e-5
_ENC_NEG = -1e30


def _enc_gelu_cdf(u):
    from scipy.special import erf

    return 0.5 * (1.0 + erf(u / np.sqrt(2.0)))


def _enc_gelu_grad(u, cdf):
    phi = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    return cdf + u * phi


def _enc_contract(x, g):
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _enc_layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _ENC_LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def _enc_layer_norm_backward(dy, cache, g):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def reference_encoder_forward(model, tokens, mask, train=False, rng=None, want_cache=False):
    """Full-length forward of an ``EncoderSurrogate``: every padded position
    of the (B, L) batch is computed."""
    c = model.config
    p = model.params
    tokens = np.asarray(tokens, dtype=float)
    mask = np.asarray(mask, dtype=float)
    B, L, _ = tokens.shape
    keep = 1.0 - c.p_drop if train else 1.0

    z = tokens @ p["lift_w"] + p["lift_b"].sum(axis=0) + p["pos"][:L]
    key_bias = (1.0 - mask)[:, None, None, :] * _ENC_NEG
    cache = {"tokens": tokens, "mask": mask, "blocks": []}
    for i in range(c.n_blocks):
        pre = f"b{i}."
        bc = {"z_in": z}
        zh1, ln1c = _enc_layer_norm(z, p[pre + "ln1_g"], p[pre + "ln1_b"])
        bc["zh1"], bc["ln1"] = zh1, ln1c
        q = (zh1 @ p[pre + "wq"] + p[pre + "bq"]).reshape(B, L, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
        k = (zh1 @ p[pre + "wk"] + p[pre + "bk"]).reshape(B, L, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
        v = (zh1 @ p[pre + "wv"] + p[pre + "bv"]).reshape(B, L, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(c.d_head) + key_bias
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=-1, keepdims=True)
        if train and c.p_drop > 0:
            dm = (rng.random(probs.shape) >= c.p_drop).astype(float)
            probs_used = probs * dm / keep
        else:
            dm = None
            probs_used = probs
        o = (probs_used @ v).transpose(0, 2, 1, 3).reshape(B, L, c.d_enc)
        attn_out = o @ p[pre + "wo"] + p[pre + "bo"]
        h = z + attn_out
        bc.update(q=q, k=k, v=v, probs=probs, attn_drop=dm, o=o)

        zh2, ln2c = _enc_layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
        u = zh2 @ p[pre + "w1"] + p[pre + "b1"]
        cdf = _enc_gelu_cdf(u)
        a = u * cdf
        ff = a @ p[pre + "w2"] + p[pre + "b2"]
        if train and c.p_drop > 0:
            dm2 = (rng.random(ff.shape) >= c.p_drop).astype(float)
            ff_used = ff * dm2 / keep
        else:
            dm2 = None
            ff_used = ff
        z = h + ff_used
        bc.update(h=h, zh2=zh2, ln2=ln2c, u=u, cdf=cdf, a=a, ffn_drop=dm2)
        cache["blocks"].append(bc)

    counts = mask.sum(axis=1)
    pooled = (z * mask[..., None]).sum(axis=1) / counts[:, None]
    y = pooled @ p["head_w"] + p["head_b"][0]
    cache.update(z_final=z, pooled=pooled, counts=counts, keep=keep)
    if want_cache:
        return y, cache
    return y


def reference_encoder_backward(model, cache, dy):
    """Full-length gradients of sum_b dy_b * y_b for every parameter."""
    c = model.config
    p = model.params
    mask = cache["mask"]
    keep = cache["keep"]
    B, L = mask.shape
    grads = {}

    grads["head_w"] = cache["pooled"].T @ dy
    grads["head_b"] = np.array([dy.sum()])
    dpooled = dy[:, None] * p["head_w"][None, :]
    dz = dpooled[:, None, :] * (mask / cache["counts"][:, None])[..., None]

    for i in reversed(range(c.n_blocks)):
        pre = f"b{i}."
        bc = cache["blocks"][i]
        dff_used = dz
        dh = dz.copy()
        dff = dff_used * bc["ffn_drop"] / keep if bc["ffn_drop"] is not None else dff_used
        grads[pre + "w2"] = _enc_contract(bc["a"], dff)
        grads[pre + "b2"] = dff.sum(axis=(0, 1))
        da = dff @ p[pre + "w2"].T
        du = da * _enc_gelu_grad(bc["u"], bc["cdf"])
        grads[pre + "w1"] = _enc_contract(bc["zh2"], du)
        grads[pre + "b1"] = du.sum(axis=(0, 1))
        dzh2 = du @ p[pre + "w1"].T
        dx, dg, db = _enc_layer_norm_backward(dzh2, bc["ln2"], p[pre + "ln2_g"])
        grads[pre + "ln2_g"], grads[pre + "ln2_b"] = dg, db
        dh = dh + dx

        dattn = dh
        grads[pre + "wo"] = _enc_contract(bc["o"], dattn)
        grads[pre + "bo"] = dattn.sum(axis=(0, 1))
        do = (dattn @ p[pre + "wo"].T).reshape(B, L, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
        probs_used = bc["probs"] * bc["attn_drop"] / keep if bc["attn_drop"] is not None else bc["probs"]
        dprobs_used = do @ bc["v"].transpose(0, 1, 3, 2)
        dv = probs_used.transpose(0, 1, 3, 2) @ do
        dprobs = dprobs_used * bc["attn_drop"] / keep if bc["attn_drop"] is not None else dprobs_used
        dscores = bc["probs"] * (dprobs - (dprobs * bc["probs"]).sum(axis=-1, keepdims=True))
        dscores = dscores / np.sqrt(c.d_head)
        dq = dscores @ bc["k"]
        dk = dscores.transpose(0, 1, 3, 2) @ bc["q"]

        def flat(t):
            return t.transpose(0, 2, 1, 3).reshape(B, L, c.d_enc)

        dqf, dkf, dvf = flat(dq), flat(dk), flat(dv)
        zh1 = bc["zh1"]
        grads[pre + "wq"] = _enc_contract(zh1, dqf)
        grads[pre + "wk"] = _enc_contract(zh1, dkf)
        grads[pre + "wv"] = _enc_contract(zh1, dvf)
        grads[pre + "bq"] = dqf.sum(axis=(0, 1))
        grads[pre + "bk"] = dkf.sum(axis=(0, 1))
        grads[pre + "bv"] = dvf.sum(axis=(0, 1))
        dzh1 = dqf @ p[pre + "wq"].T + dkf @ p[pre + "wk"].T + dvf @ p[pre + "wv"].T
        dx, dg, db = _enc_layer_norm_backward(dzh1, bc["ln1"], p[pre + "ln1_g"])
        grads[pre + "ln1_g"], grads[pre + "ln1_b"] = dg, db
        dz = dh + dx

    grads["pos"] = np.zeros_like(p["pos"])
    grads["pos"][:L] = dz.sum(axis=0)
    grads["lift_w"] = _enc_contract(cache["tokens"], dz)
    db_shared = dz.sum(axis=(0, 1))
    grads["lift_b"] = np.tile(db_shared, (c.n_fields, 1))
    return grads


def reference_encoder_loss_and_grads(model, tokens, mask, labels, train=False, rng=None):
    y, cache = reference_encoder_forward(model, tokens, mask, train=train, rng=rng, want_cache=True)
    resid = y - np.asarray(labels, dtype=float)
    loss = float(np.abs(resid).mean())
    dy = np.sign(resid) / resid.shape[0]
    return loss, reference_encoder_backward(model, cache, dy)


def reference_encoder_mc_predict(model, tokens, mask, n_mc=10, seed=0):
    if model.config.p_drop == 0 or n_mc == 1:
        mu = reference_encoder_forward(model, tokens, mask)
        return mu, np.zeros_like(mu)
    rng = np.random.default_rng(seed)
    draws = np.stack([reference_encoder_forward(model, tokens, mask, train=True, rng=rng)
                      for _ in range(n_mc)])
    return draws.mean(axis=0), draws.std(axis=0)


# --- per-genome bookkeeping references ----------------------------------------
# The genome module's canonical JSON, validation and random draw as they were
# before they were made cheap (template JSON, one validity predicate, one
# vectorised draw per genome), copied literally.  The package must reproduce
# their outputs byte for byte.


def reference_to_json(genome):
    """Canonical single-line JSON: sorted keys, compact separators."""
    return json.dumps(gn.to_dict(genome), sort_keys=True, separators=(",", ":"))


def reference_validate(genome, ranges=None):
    """Every rule violation, checked field by field on every gene."""
    ranges = ranges or gn.SpaceRanges()
    out = []
    g = genome.global_cfg
    for name in ("d_model", "block_size", "max_layers"):
        if getattr(g, name) < 1:
            out.append(gn.Violation(None, name, "must be >= 1"))
    if len(genome.layers) != g.max_layers:
        out.append(gn.Violation(None, "layers", f"expected {g.max_layers} genes, got {len(genome.layers)}"))
    if not any(gene.mask == 1 for gene in genome.layers):
        out.append(gn.Violation(None, "mask", "at least one layer must be active"))
    for i, gene in enumerate(genome.layers):
        for bit in ("mask", "attn"):
            if getattr(gene, bit) not in (0, 1):
                out.append(gn.Violation(i, bit, "must be 0 or 1"))
        if gene.mask != 1:
            continue  # inactive layers are not constrained further
        for name in gn.NUMERIC_FIELDS:
            if not ranges.field(name).contains(getattr(gene, name)):
                r = ranges.field(name)
                out.append(gn.Violation(i, name, f"not on grid [{r.lo}:{r.step}:{r.hi}]"))
        if gene.n_kv >= 1 and gene.n_h >= 1 and gene.n_h % gene.n_kv != 0:
            out.append(gn.Violation(i, "n_kv", f"{gene.n_kv} does not divide n_h={gene.n_h}"))
    return out


def reference_random_genome(ranges=None, rng=None, global_cfg=None):
    """Uniform independent draw of every field of every gene, one generator
    call per field, then repair."""
    ranges = ranges or gn.SpaceRanges()
    rng = rng if rng is not None else np.random.default_rng()
    gcfg = global_cfg or gn.GlobalConfig()

    def draw(r):
        return int(rng.choice(r.values()))

    layers = tuple(
        gn.LayerGene(
            mask=int(rng.integers(0, 2)),
            attn=int(rng.integers(0, 2)),
            n_h=draw(ranges.n_h),
            n_kv=draw(ranges.n_kv),
            d_qk=draw(ranges.d_qk),
            d_v=draw(ranges.d_v),
            d_mlp=draw(ranges.d_mlp),
        )
        for _ in range(gcfg.max_layers)
    )
    return gn.repair(gn.ArchGenome(gcfg, layers), ranges)


def reference_count_params(genome, vocab_size):
    """Embedding plus every active layer's weights, summed gene by gene."""
    d = genome.global_cfg.d_model
    return vocab_size * d + sum(gn.layer_param_count(g, d) for g in genome.active_layers())


def reference_gene_on_space(gene, ranges):
    """The per-gene fast-path rule of repair and validate, field by field
    and uncached: gate bits 0 or 1, every numeric field on its grid, and
    1 <= n_kv <= n_h with n_kv dividing n_h."""
    if gene.mask not in (0, 1) or gene.attn not in (0, 1):
        return False
    for name in gn.NUMERIC_FIELDS:
        if not ranges.field(name).contains(getattr(gene, name)):
            return False
    return 1 <= gene.n_kv <= gene.n_h and gene.n_h % gene.n_kv == 0


def reference_profile_model(genome, workload):
    """A fresh profile_layer of every active layer, in layer order."""
    return [
        profile_layer(g, genome.global_cfg, workload.ctx_mean)
        for g in genome.layers
        if g.mask == 1
    ]


def reference_substrate_cost(genome, spec, workload):
    """The roofline estimate as a literal per-layer loop over fresh
    profiles, with no per-gene cache: every term computed and summed in
    layer order."""
    compute_rate = spec.mac_count * spec.clock_hz
    e_weight = spec.e_sram_j_per_byte if spec.weights_resident else spec.e_dram_j_per_byte
    e_tok = 0.0
    tpot = 0.0
    total_ops = 0.0
    for prof in reference_profile_model(genome, workload):
        w_traffic = prof.weight_bytes * spec.reuse_weight
        kv_traffic = prof.kv_bytes_per_token * workload.ctx_mean * spec.reuse_kv
        act_traffic = prof.act_bytes * spec.reuse_act
        traffic = w_traffic + kv_traffic + act_traffic
        tpot += max(prof.decode_ops / compute_rate, traffic / spec.dram_bw_bytes_per_s)
        e_tok += (
            prof.decode_ops * spec.e_mac_j
            + w_traffic * e_weight
            + (kv_traffic + act_traffic) * spec.e_sram_j_per_byte
        )
        total_ops += prof.decode_ops
    ttft = workload.prefill_tokens * total_ops / compute_rate
    return (e_tok, ttft, tpot)
