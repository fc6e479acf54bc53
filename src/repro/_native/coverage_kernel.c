/* Native coverage kernel: the hot loops of CoverageState, whole
 * SGB / CT / WT selections, and the index side of a build or reload
 * (the paper's motif walks, the instance-CSR assembly and a delta's
 * graph splice).
 *
 * This file is deliberately dependency-free C99 (libc's qsort aside)
 * over the exact flat buffers the Python kernel already owns (C `long`
 * == numpy NP_LONG, `unsigned char` == the uint8 alive bitmask), so the
 * Python and native paths share one memory layout and can be
 * differential-tested for bit-identical behaviour.
 *
 * Entry points (all take the state context `ctx` described below):
 *   repro_kill_instances     delete one edge, report per-target kills
 *   repro_kill_many          delete a sequence of edges, report per-step
 *                            kill counts (RD/RDT, SGB+BB commit, replays)
 *   repro_heap_build         build the global max-gain heap
 *   repro_top_validate       validated max-gain edge
 *   repro_top_many           the k best validated edges, heap unchanged
 *   repro_pair_arena_build   build every target's pair heap in one pass
 *   repro_pair_validate_many cross-target arg-max pair over a target list
 *   repro_sgb_drive          a whole SGB-Greedy selection
 *   repro_pair_drive         a whole CT-Greedy (across) or WT-Greedy
 *                            (within) selection
 *   repro_mt_shuffle         CPython's seeded random.shuffle over an id
 *                            array (RD / RDT; no ctx)
 *   repro_walk_motif         triangle / rectangle / rectri instance rows
 *                            of a list of targets over the graph CSR
 *                            (no ctx)
 *   repro_assemble_index     the inverse CSR, counter matrix, slot
 *                            table, candidate ids and per-target entry
 *                            offsets of a TargetSubgraphIndex (no ctx)
 *   repro_splice_graph       a delta's IndexedGraph: edge-id map, pairs
 *                            and CSR in one merge pass each (no ctx)
 *
 * Heap representation: a binary min-heap over parallel (keys, ids)
 * arrays ordered lexicographically by (key, id) — exactly the total
 * order Python's heapq applies to its (-gain, edge_id) tuples.  Because
 * every (key, id) pair is distinct (ids are unique within a heap), the
 * validated pop sequence depends only on the heap *contents*, never on
 * the internal array layout, which is what makes this implementation
 * observably identical to heapq.  Keys are stale upper bounds (gains only
 * ever decrease), so a heap built on any earlier state of the same walk
 * validates to the same tops as one built now: that is what lets a state
 * copy start from the pristine prototype's warm heaps.
 *
 * State context: one array of longs per state (pointers stored as
 * integers; `long` holds a pointer on every platform this loads on):
 *   ctx[0]  edge_indptr    ctx[1]  edge_inst_ids  ctx[2]  inst_indptr
 *   ctx[3]  inst_edge_ids  ctx[4]  inst_slot      ctx[5]  inst_target_idx
 *   ctx[6]  alive          ctx[7]  gain           ctx[8]  et_count
 *   ctx[9]  alive_by_tidx  ctx[10] broken         ctx[11] touched
 *   ctx[12] et_indptr      ctx[13] et_tidx
 *   ctx[14] heap keys      ctx[15] heap ids       ctx[16] heap size
 *   ctx[17] arena keys     ctx[18] arena ids      ctx[19] arena offsets
 *   ctx[20] arena sizes    ctx[21] n_targets
 * Slot 16 is a value the C side updates (-1: heap not built).
 *
 * Pair-heap arena: the per-target heaps of best_scored_pair live in one
 * flat (keys, ids) pair of arrays; target t's heap occupies
 * [offsets[t], offsets[t] + sizes[t]).  Its capacity offsets[t+1] -
 * offsets[t] is the number of counter-matrix entries of t (every edge
 * that can ever have an own-gain for t), so one allocation serves every
 * target and a state copy is one memcpy.  repro_pair_arena_build keys
 * every heap to one MLBT weight in a single pass (a session prototype
 * does so once; a state without a keyed arena on its first pair query).
 *
 * Compiled on demand by repro._native.build (ctypes, per-user cache
 * keyed by the SHA-256 of this source) or ahead of time as the optional
 * setuptools extension; both load paths bind the same symbols.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(_WIN32)
#define REPRO_EXPORT __declspec(dllexport)
#else
#define REPRO_EXPORT __attribute__((visibility("default")))
#endif

#define CTX_PTR(type, slot) ((type *) ctx[slot])

/* PyInit shim so the file can double as an "extension module" for the
 * optional setuptools build: the resulting artifact is still loaded via
 * ctypes (never imported), the entry point only has to exist so wheel
 * builds do not reject the module. */
REPRO_EXPORT void *PyInit__coverage_kernel(void) { return 0; }

/* ------------------------------------------------------------------ */
/* kill walk                                                           */
/* ------------------------------------------------------------------ */

/* Delete `edge_id`: kill every alive instance containing it, decrement
 * the per-edge and per-(edge, target) live counters of every sibling
 * membership and maintain the per-target alive counts.  When `report`
 * is set, the per-target broken counts accumulate into ctx[10] (kept
 * all-zero between calls by the caller) and the touched target indices
 * into ctx[11] (unsorted; slot 0 receives the count).  Returns the
 * number of instances killed. */
static long kill_walk(const long *ctx, long edge_id, int report)
{
    const long *edge_indptr = CTX_PTR(const long, 0);
    const long *edge_inst_ids = CTX_PTR(const long, 1);
    const long *inst_indptr = CTX_PTR(const long, 2);
    const long *inst_edge_ids = CTX_PTR(const long, 3);
    const long *inst_slot = CTX_PTR(const long, 4);
    const long *inst_target_idx = CTX_PTR(const long, 5);
    unsigned char *alive = CTX_PTR(unsigned char, 6);
    long *gain = CTX_PTR(long, 7);
    long *et_count = CTX_PTR(long, 8);
    long *alive_by_tidx = CTX_PTR(long, 9);
    long *broken = CTX_PTR(long, 10);
    long *touched = CTX_PTR(long, 11);
    long killed = 0, n_touched = 0;
    long position, stop;

    stop = edge_indptr[edge_id + 1];
    for (position = edge_indptr[edge_id]; position < stop; position++) {
        long instance_id = edge_inst_ids[position];
        long tidx, member, hi;
        if (!alive[instance_id])
            continue;
        alive[instance_id] = 0;
        tidx = inst_target_idx[instance_id];
        if (report) {
            if (broken[tidx] == 0)
                touched[1 + n_touched++] = tidx;
            broken[tidx] += 1;
        }
        alive_by_tidx[tidx] -= 1;
        killed += 1;
        hi = inst_indptr[instance_id + 1];
        for (member = inst_indptr[instance_id]; member < hi; member++) {
            gain[inst_edge_ids[member]] -= 1;
            et_count[inst_slot[member]] -= 1;
        }
    }
    if (report)
        touched[0] = n_touched;
    return killed;
}

/* Delete `edge_id` and report the per-target broken counts through the
 * scratch buffers: ctx[10][tidx] holds the count of every touched
 * target, ctx[11] = [count, touched target indices ascending].  The
 * caller re-zeroes exactly the touched entries of ctx[10].  Returns the
 * total number of instances killed. */
REPRO_EXPORT long repro_kill_instances(const long *ctx, long edge_id)
{
    long *touched = CTX_PTR(long, 11);
    long killed = kill_walk(ctx, edge_id, 1);
    long n_touched = touched[0], i;
    /* ascending target order (insertion sort: the list is tiny and
     * near-sorted, instances are stored grouped by target) */
    for (i = 2; i <= n_touched; i++) {
        long value = touched[i];
        long j = i - 1;
        while (j >= 1 && touched[j] > value) {
            touched[j + 1] = touched[j];
            j--;
        }
        touched[j + 1] = value;
    }
    return killed;
}

/* Delete `ids[0..n)` in order (an id < 0 names an edge outside the
 * graph and kills nothing); out_killed[i] receives the instances the
 * i-th deletion killed.  Returns the total. */
REPRO_EXPORT long repro_kill_many(const long *ctx, const long *ids, long n,
                                  long *out_killed)
{
    long total = 0, i;
    for (i = 0; i < n; i++) {
        long killed = ids[i] < 0 ? 0 : kill_walk(ctx, ids[i], 0);
        out_killed[i] = killed;
        total += killed;
    }
    return total;
}

/* ------------------------------------------------------------------ */
/* lexicographic (key, id) binary min-heap helpers                     */
/* ------------------------------------------------------------------ */

static int heap_less(const long *keys, const long *ids, long a, long b)
{
    if (keys[a] != keys[b])
        return keys[a] < keys[b];
    return ids[a] < ids[b];
}

static void heap_swap(long *keys, long *ids, long a, long b)
{
    long key = keys[a], id = ids[a];
    keys[a] = keys[b];
    ids[a] = ids[b];
    keys[b] = key;
    ids[b] = id;
}

static void heap_sift_down(long *keys, long *ids, long size, long root)
{
    for (;;) {
        long child = 2 * root + 1;
        if (child >= size)
            return;
        if (child + 1 < size && heap_less(keys, ids, child + 1, child))
            child += 1;
        if (!heap_less(keys, ids, child, root))
            return;
        heap_swap(keys, ids, root, child);
        root = child;
    }
}

static void heap_sift_up(long *keys, long *ids, long node)
{
    while (node > 0) {
        long parent = (node - 1) / 2;
        if (!heap_less(keys, ids, node, parent))
            return;
        heap_swap(keys, ids, node, parent);
        node = parent;
    }
}

/* Floyd heap construction over `size` (key, id) pairs. */
static void heap_init(long *keys, long *ids, long size)
{
    long root;
    for (root = size / 2 - 1; root >= 0; root--)
        heap_sift_down(keys, ids, size, root);
}

/* Pop the root; returns the new size. */
static long heap_pop(long *keys, long *ids, long size)
{
    size -= 1;
    if (size > 0) {
        keys[0] = keys[size];
        ids[0] = ids[size];
        heap_sift_down(keys, ids, size, 0);
    }
    return size;
}

/* ------------------------------------------------------------------ */
/* global max-gain heap                                                */
/* ------------------------------------------------------------------ */

/* Build the global heap over the candidate ids `candidates[0..n)` with a
 * positive live gain: keys hold -gain, so the min-heap root is the
 * max-gain candidate.  ctx[14]/ctx[15] must have room for n entries.
 * Returns the heap size (also stored in ctx[16]). */
REPRO_EXPORT long repro_heap_build(long *ctx, const long *candidates, long n)
{
    const long *gain = CTX_PTR(const long, 7);
    long *keys = CTX_PTR(long, 14);
    long *ids = CTX_PTR(long, 15);
    long size = 0, i;
    for (i = 0; i < n; i++) {
        long edge_id = candidates[i];
        if (gain[edge_id] > 0) {
            keys[size] = -gain[edge_id];
            ids[size] = edge_id;
            size++;
        }
    }
    heap_init(keys, ids, size);
    ctx[16] = size;
    return size;
}

/* Validate the root of the global heap: pop dead entries, repair stale
 * keys in place (sound: gains only ever decrease) and stop at the first
 * root whose key matches the live counter.  Returns its edge id and
 * writes its gain into *gain_out; -1 when the heap runs empty. */
static long top_validate(long *ctx, long *gain_out)
{
    const long *gain = CTX_PTR(const long, 7);
    long *keys = CTX_PTR(long, 14);
    long *ids = CTX_PTR(long, 15);
    long size = ctx[16];
    long result = -1;
    while (size > 0) {
        long edge_id = ids[0];
        long current = gain[edge_id];
        if (current <= 0) {
            size = heap_pop(keys, ids, size);
        } else if (-keys[0] != current) {
            keys[0] = -current;
            heap_sift_down(keys, ids, size, 0);
        } else {
            *gain_out = current;
            result = edge_id;
            break;
        }
    }
    ctx[16] = size;
    return result;
}

/* Public twin of top_validate: out[0] = edge id (-1: none), out[1] =
 * its gain.  Returns the edge id. */
REPRO_EXPORT long repro_top_validate(long *ctx, long *out)
{
    long current = 0;
    long edge_id = top_validate(ctx, &current);
    out[0] = edge_id;
    out[1] = current;
    return edge_id;
}

/* The `k` best validated (edge id, gain) pairs, best first, into
 * out_ids/out_gains; returns how many were found.  Each validated root
 * is popped to expose the next and pushed back afterwards, so the heap
 * keeps its contents as a multiset (and its capacity). */
REPRO_EXPORT long repro_top_many(long *ctx, long k, long *out_ids,
                                 long *out_gains)
{
    long *keys = CTX_PTR(long, 14);
    long *ids = CTX_PTR(long, 15);
    long n = 0, i, size;
    while (n < k) {
        long current = 0;
        long edge_id = top_validate(ctx, &current);
        if (edge_id < 0)
            break;
        out_ids[n] = edge_id;
        out_gains[n] = current;
        n++;
        ctx[16] = heap_pop(keys, ids, ctx[16]);
    }
    size = ctx[16];
    for (i = 0; i < n; i++) {
        keys[size] = -out_gains[i];
        ids[size] = out_ids[i];
        heap_sift_up(keys, ids, size);
        size++;
    }
    ctx[16] = size;
    return n;
}

/* ------------------------------------------------------------------ */
/* per-target pair heaps                                               */
/* ------------------------------------------------------------------ */

/* Build every target's best_scored_pair heap in one pass over the rows
 * of the per-(edge, target) counter matrix of the candidate edges
 * `candidates[0..n)` (the only edges with rows): entry (e, t) with a
 * positive live own-gain contributes (-(own * weight + gain[e]), e) to
 * t's heap.  The result holds the same (key, id) multiset the numpy
 * kernel's per-target walk over the target's alive instances produces,
 * which is all the validated pop order depends on.  Returns the number of entries
 * written. */
REPRO_EXPORT long repro_pair_arena_build(long *ctx, long weight,
                                         const long *candidates, long n)
{
    const long *gain = CTX_PTR(const long, 7);
    const long *et_count = CTX_PTR(const long, 8);
    const long *et_indptr = CTX_PTR(const long, 12);
    const long *et_tidx = CTX_PTR(const long, 13);
    long *keys = CTX_PTR(long, 17);
    long *ids = CTX_PTR(long, 18);
    const long *offsets = CTX_PTR(const long, 19);
    long *sizes = CTX_PTR(long, 20);
    long n_targets = ctx[21];
    long total = 0, i, slot, tidx;

    for (tidx = 0; tidx < n_targets; tidx++)
        sizes[tidx] = 0;
    for (i = 0; i < n; i++) {
        long edge_id = candidates[i];
        long stop = et_indptr[edge_id + 1];
        for (slot = et_indptr[edge_id]; slot < stop; slot++) {
            long own = et_count[slot];
            long position;
            if (own <= 0)
                continue;
            tidx = et_tidx[slot];
            position = offsets[tidx] + sizes[tidx]++;
            keys[position] = -(own * weight + gain[edge_id]);
            ids[position] = edge_id;
        }
    }
    for (tidx = 0; tidx < n_targets; tidx++) {
        heap_init(keys + offsets[tidx], ids + offsets[tidx], sizes[tidx]);
        total += sizes[tidx];
    }
    return total;
}

/* Live own-gain of (edge_id, tidx): one scan of the edge's row of the
 * per-(edge, target) counter matrix; rows are tidx-ascending so the
 * scan stops early.  Mirrors CoverageState._own_gain exactly. */
static long own_gain(const long *ctx, long edge_id, long tidx)
{
    const long *et_indptr = CTX_PTR(const long, 12);
    const long *et_tidx = CTX_PTR(const long, 13);
    const long *et_count = CTX_PTR(const long, 8);
    long slot, stop = et_indptr[edge_id + 1];
    for (slot = et_indptr[edge_id]; slot < stop; slot++) {
        long entry = et_tidx[slot];
        if (entry == tidx)
            return et_count[slot];
        if (entry > tidx)
            break;
    }
    return 0;
}

/* Validate the pair heaps of the `n` targets `tidxs[0..n)` and return
 * the position (in `tidxs`) of the arg-max pair, -1 when every queried
 * heap ran empty; *key_out/*id_out receive its key and edge id.
 *
 * Each heap holds keys of -(own * weight + total) with weight =
 * constant - 1; entries whose own gain dropped to zero are popped,
 * stale keys are recomputed from the live counters and sifted back
 * (keys only ever decrease), and the first exact match is the target's
 * current arg-max pair.  Across targets the best pair wins by the
 * highest key, ties toward the smallest edge id and then the earliest
 * position — the numpy path's left-to-right strict-improvement sweep. */
static long pair_best(long *ctx, const long *tidxs, long n, long weight,
                      long *key_out, long *id_out)
{
    const long *gain = CTX_PTR(const long, 7);
    long *arena_keys = CTX_PTR(long, 17);
    long *arena_ids = CTX_PTR(long, 18);
    const long *offsets = CTX_PTR(const long, 19);
    long *sizes = CTX_PTR(long, 20);
    long best_key = -1, best_id = -1, best_pos = -1;
    long i;

    for (i = 0; i < n; i++) {
        long tidx = tidxs[i];
        long *keys = arena_keys + offsets[tidx];
        long *ids = arena_ids + offsets[tidx];
        long size = sizes[tidx];
        long top_key = -1, top_id = -1;
        while (size > 0) {
            long edge_id = ids[0];
            long own = own_gain(ctx, edge_id, tidx);
            long key;
            if (own <= 0) {
                size = heap_pop(keys, ids, size);
                continue;
            }
            key = own * weight + gain[edge_id];
            if (-keys[0] == key) {
                top_key = key;
                top_id = edge_id;
                break;
            }
            keys[0] = -key;
            heap_sift_down(keys, ids, size, 0);
        }
        sizes[tidx] = size;
        if (top_key < 0)
            continue;
        if (best_pos < 0 || top_key > best_key ||
            (top_key == best_key && top_id < best_id)) {
            best_key = top_key;
            best_id = top_id;
            best_pos = i;
        }
    }
    *key_out = best_key;
    *id_out = best_id;
    return best_pos;
}

/* Public twin of pair_best: out[0] = key, out[1] = edge id, out[2] =
 * query position (-1: no pair).  Returns the position. */
REPRO_EXPORT long repro_pair_validate_many(long *ctx, const long *tidxs,
                                           long n, long weight, long *out)
{
    long key, edge_id;
    long position = pair_best(ctx, tidxs, n, weight, &key, &edge_id);
    out[0] = key;
    out[1] = edge_id;
    out[2] = position;
    return position;
}

/* ------------------------------------------------------------------ */
/* whole-selection drivers                                             */
/* ------------------------------------------------------------------ */

/* SGB-Greedy: up to `budget` times, delete the validated max-gain edge.
 * out_ids[i] / out_killed[i] receive the i-th deleted edge and the
 * instances it killed.  Returns the number of deletions (fewer than
 * `budget` once no edge has a positive gain).  Needs the global heap. */
REPRO_EXPORT long repro_sgb_drive(long *ctx, long budget, long *out_ids,
                                  long *out_killed)
{
    long picks = 0;
    while (picks < budget) {
        long current = 0;
        long edge_id = top_validate(ctx, &current);
        if (edge_id < 0)
            break;
        out_ids[picks] = edge_id;
        out_killed[picks] = kill_walk(ctx, edge_id, 0);
        picks++;
    }
    return picks;
}

/* CT-Greedy / WT-Greedy under per-target sub-budgets `quota` (indexed
 * by target index).  `order[0..n)` lists target indices; the driver may
 * reorder it in place.  out_ids[i] / out_tidx[i] / out_killed[i] receive
 * the i-th deleted edge, the target it was charged to and the instances
 * it killed.  Returns the number of deletions.  Needs the pair arena
 * keyed to `weight`, and (across mode) the global heap.
 *
 * across (within == 0): `order` is the problem's target order.  Every
 * step scores the pairs of all targets whose sub-budget is not yet
 * spent and deletes the arg-max pair's edge, charged to its target.
 * When no active target has an own-gain edge left, the max-gain edge is
 * deleted instead and charged to the active target with the most
 * sub-budget left, ties toward the smallest rank[tidx] (the target's
 * position in edge_sort_key order).  `used` (n_targets, zeroed by the
 * caller) counts each target's charged deletions.
 *
 * within (within != 0): `order` is the processing order (a target may
 * repeat).  Each visit deletes the best pair of that one target until
 * its sub-budget is spent or it has no own-gain edge left, then moves
 * on; `rank` and `used` are not read. */
REPRO_EXPORT long repro_pair_drive(long *ctx, long weight, long budget,
                                   long within, long *order, long n,
                                   const long *quota, const long *rank,
                                   long *used, long *out_ids,
                                   long *out_tidx, long *out_killed)
{
    long picks = 0, head = 0, visit = 0, i, kept = 0;
    if (!within) {
        for (i = 0; i < n; i++)
            if (quota[order[i]] > 0)
                order[kept++] = order[i];
        n = kept;
    }
    while (picks < budget) {
        long key = 0, edge_id = -1, position, tidx;
        if (within) {
            if (head >= n)
                break;
            if (visit >= quota[order[head]] ||
                pair_best(ctx, order + head, 1, weight, &key, &edge_id) < 0) {
                head++;
                visit = 0;
                continue;
            }
            tidx = order[head];
            visit++;
        } else {
            if (n == 0)
                break;
            position = pair_best(ctx, order, n, weight, &key, &edge_id);
            if (position < 0) {
                long current = 0;
                edge_id = top_validate(ctx, &current);
                if (edge_id < 0)
                    break;
                position = 0;
                for (i = 1; i < n; i++) {
                    long a = used[order[i]] - quota[order[i]];
                    long b = used[order[position]] - quota[order[position]];
                    if (a < b || (a == b && rank[order[i]] < rank[order[position]]))
                        position = i;
                }
            }
            tidx = order[position];
            used[tidx] += 1;
            if (used[tidx] >= quota[tidx]) {
                for (i = position + 1; i < n; i++)
                    order[i - 1] = order[i];
                n--;
            }
        }
        out_ids[picks] = edge_id;
        out_tidx[picks] = tidx;
        out_killed[picks] = kill_walk(ctx, edge_id, 0);
        picks++;
    }
    return picks;
}

/* ------------------------------------------------------------------ */
/* seeded shuffle (RD / RDT)                                           */
/* ------------------------------------------------------------------ */

/* CPython's MT19937 (Modules/_randommodule.c genrand_uint32): N = 624,
 * M = 397.  `mt` holds the 624 state words, `*index` the position of the
 * next word (N: regenerate first). */
#define MT_N 624
#define MT_M 397

static uint32_t mt_next(uint32_t *mt, long *index)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *index = 0;
    }
    y = mt[(*index)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Shuffle `ids[0..n)` in place exactly as CPython's
 * `random.Random.shuffle` does: for i = n-1 down to 1, swap ids[i] with
 * ids[j], j = _randbelow(i + 1) — draws of getrandbits(k), k the bit
 * length of i + 1, i.e. the top k bits of one 32-bit output, rejected
 * while >= i + 1.  `state` is `Random.getstate()[1]`: 624 words and the
 * position; it is advanced in place, so writing it back with setstate
 * leaves the generator where Python's shuffle would.  Returns 0, or -1
 * (nothing touched) for a malformed state or n >= 2**32, where one
 * draw would need more than one word. */
REPRO_EXPORT long repro_mt_shuffle(long long *state, long *ids, long n)
{
    uint32_t mt[MT_N];
    long index = (long) state[MT_N], i;
    int k = 0;
    if (index < 0 || index > MT_N || (unsigned long long) n > 0xffffffffULL)
        return -1;
    for (i = 0; i < MT_N; i++)
        mt[i] = (uint32_t) state[i];
    for (i = n - 1; i >= 1; i--) {
        unsigned long long bound = (unsigned long long) i + 1;
        uint32_t r;
        long swap;
        if (k == 0)
            while ((bound >> k) != 0)
                k++;
        else if ((bound >> (k - 1)) == 0)
            k--;
        do {
            r = mt_next(mt, &index) >> (32 - k);
        } while (r >= bound);
        swap = ids[i];
        ids[i] = ids[r];
        ids[r] = swap;
    }
    for (i = 0; i < MT_N; i++)
        state[i] = (long long) mt[i];
    state[MT_N] = index;
    return 0;
}

/* ------------------------------------------------------------------ */
/* index side: motif walks and instance-CSR assembly                   */
/* ------------------------------------------------------------------ */

/* Motif codes of repro_walk_motif (TargetSubgraphIndex's walk table). */
#define WALK_TRIANGLE 0
#define WALK_RECTANGLE 1
#define WALK_RECTRI 2

/* Append one instance row of `arity` edge ids when it fits the caller's
 * buffer (`capacity` rows); rows past it are only counted. */
static void walk_emit(long *out, long capacity, long *total, long arity,
                      long e0, long e1, long e2, long e3)
{
    if (*total < capacity) {
        long *row = out + *total * arity;
        row[0] = e0;
        row[1] = e1;
        if (arity > 2)
            row[2] = e2;
        if (arity > 3)
            row[3] = e3;
    }
    *total += 1;
}

/* Whether `node` is a node id whose CSR row lies inside the `n_entries`
 * row entries (and, with `scan`, holds only node ids).  The walks index
 * rows and the mark scratch with these values, so a corrupt CSR is
 * refused instead of read or written out of range: the endpoint rows are
 * scanned once per target, the inner rows' entries checked as read. */
static int walk_row_ok(const long *indptr, const long *neighbors,
                       long n_nodes, long n_entries, long node, int scan)
{
    long j;
    if ((unsigned long) node >= (unsigned long) n_nodes)
        return 0;
    if (indptr[node] < 0 || indptr[node] > indptr[node + 1]
        || indptr[node + 1] > n_entries)
        return 0;
    if (scan)
        for (j = indptr[node]; j < indptr[node + 1]; j++)
            if ((unsigned long) neighbors[j] >= (unsigned long) n_nodes)
                return 0;
    return 1;
}

/* Mark the CSR row of `node`: mark[neighbor] = incident edge id (set) or
 * -1 (clear). */
static void walk_mark(const long *indptr, const long *neighbors,
                      const long *incident, long *mark, long node, int set)
{
    long j;
    for (j = indptr[node]; j < indptr[node + 1]; j++)
        mark[neighbors[j]] = set ? incident[j] : -1;
}

/* One target's instances (see repro_walk_motif); returns 0, or -2 for an
 * out-of-range CSR row met inside the walk.  Only `mark_v` (rectangle) or
 * both marks (rectri) hold the endpoint rows while it runs. */
static long walk_target(long motif, long n_nodes, long n_entries,
                        const long *indptr, const long *neighbors,
                        const long *incident, long u, long v,
                        const long *mark_u, const long *mark_v, long *out,
                        long capacity, long *total)
{
    long i, j, k;
    if (motif == WALK_RECTANGLE) {
        for (i = indptr[u]; i < indptr[u + 1]; i++) {
            long a = neighbors[i];
            if (a == v)
                continue;
            if (!walk_row_ok(indptr, neighbors, n_nodes, n_entries, a, 0))
                return -2;
            for (k = indptr[a]; k < indptr[a + 1]; k++) {
                long b = neighbors[k];
                if ((unsigned long) b >= (unsigned long) n_nodes)
                    return -2;
                if (b == u || b == v || mark_v[b] < 0)
                    continue;
                walk_emit(out, capacity, total, 3, incident[i], incident[k],
                          mark_v[b], 0);
            }
        }
        return 0;
    }
    /* triangle / rectri: two-pointer merge of the sorted rows of u and v */
    i = indptr[u];
    j = indptr[v];
    while (i < indptr[u + 1] && j < indptr[v + 1]) {
        long w = neighbors[i];
        if (w < neighbors[j]) {
            i++;
            continue;
        }
        if (w > neighbors[j]) {
            j++;
            continue;
        }
        if (motif == WALK_TRIANGLE) {
            walk_emit(out, capacity, total, 2, incident[i], incident[j], 0, 0);
        } else {
            if (!walk_row_ok(indptr, neighbors, n_nodes, n_entries, w, 0))
                return -2;
            for (k = indptr[w]; k < indptr[w + 1]; k++) {
                long b = neighbors[k];
                if ((unsigned long) b >= (unsigned long) n_nodes)
                    return -2;
                if (b == u || b == v)
                    continue;
                /* orientation u - w - b - v, then v - w - b - u */
                if (mark_v[b] >= 0)
                    walk_emit(out, capacity, total, 4, incident[i],
                              incident[j], incident[k], mark_v[b]);
                if (mark_u[b] >= 0)
                    walk_emit(out, capacity, total, 4, incident[i],
                              incident[j], incident[k], mark_u[b]);
            }
        }
        i++;
        j++;
    }
    return 0;
}

/* Enumerate the instances of `n_targets` targets of a built-in motif over
 * an IndexedGraph CSR, as fixed-arity rows of protector edge ids, in
 * exactly the order of the motif's Python `enumerate_instance_edge_ids`:
 *   triangle   (u,w) (w,v)             common neighbors w ascending
 *   rectangle  (u,a) (a,b) (b,v)       a along u's row, b along a's row
 *   rectri     (u,w) (w,v) (w,b) (b,x) w common ascending, b along w's
 *                                      row, x = v then x = u
 * `ends` holds each target's endpoint node ids (u, v), -1 for an endpoint
 * absent from the graph (no instances).  `mark` is 2n longs of caller-
 * owned scratch, all -1 on entry and again on return (no static state,
 * so concurrent calls are safe on distinct scratch).  Rows are written
 * to `out` while they fit its `capacity` rows and counted past it;
 * `counts[t]` receives target t's instance count.  Returns the total
 * instance count (the caller re-walks with a larger buffer when it
 * exceeds `capacity`), -1 for an unknown motif code, or -2 for a CSR row
 * that is out of range (`n_entries` is the length of `neighbors`). */
REPRO_EXPORT long repro_walk_motif(long motif, long n_nodes, long n_entries,
                                   const long *indptr, const long *neighbors,
                                   const long *incident, const long *ends,
                                   long n_targets, long *mark, long *out,
                                   long capacity, long *counts)
{
    long *mark_u = mark, *mark_v = mark + n_nodes;
    long total = 0, t, status;
    if (motif != WALK_TRIANGLE && motif != WALK_RECTANGLE
        && motif != WALK_RECTRI)
        return -1;
    for (t = 0; t < n_targets; t++) {
        long u = ends[2 * t], v = ends[2 * t + 1], before = total;
        if (u < 0 || v < 0) {
            counts[t] = 0;
            continue;
        }
        if (!walk_row_ok(indptr, neighbors, n_nodes, n_entries, u, 1)
            || !walk_row_ok(indptr, neighbors, n_nodes, n_entries, v, 1))
            return -2;
        if (motif != WALK_TRIANGLE)
            walk_mark(indptr, neighbors, incident, mark_v, v, 1);
        if (motif == WALK_RECTRI)
            walk_mark(indptr, neighbors, incident, mark_u, u, 1);
        status = walk_target(motif, n_nodes, n_entries, indptr, neighbors,
                             incident, u, v, mark_u, mark_v, out, capacity,
                             &total);
        if (motif != WALK_TRIANGLE)
            walk_mark(indptr, neighbors, incident, mark_v, v, 0);
        if (motif == WALK_RECTRI)
            walk_mark(indptr, neighbors, incident, mark_u, u, 0);
        if (status < 0)
            return status;
        counts[t] = total - before;
    }
    return total;
}

/* Assembly passes 2-3 of TargetSubgraphIndex: from the instance-major
 * membership buffer (`inst_indptr`, `memberships`, `inst_target_idx`)
 * build, over `m` edge ids,
 *   edge_indptr (m+1), gain (m), edge_inst_ids (n_memberships)
 *       the edge -> instances inverse CSR (one counting sort, stable:
 *       within an edge, instance ids ascend) and its row lengths;
 *   et_indptr (m+1), et_tidx, et_count
 *       the per-(edge, target) counter matrix: one run per distinct
 *       target along an edge's (target-ordered) instance row;
 *   inst_slot (n_memberships)
 *       each membership's counter-matrix slot;
 *   candidates (m), n_candidates (1)
 *       the edge ids with a positive gain, ascending, and their count;
 *   entry_offsets (n_targets + 1)
 *       the counter-matrix entries of targets below t, for every t (the
 *       first half of the pair layout of repro_pair_drive).
 * et_tidx / et_count need room for n_memberships entries (the run count
 * never exceeds it); `scratch` is n_memberships longs of caller-owned
 * scratch.  `n_target_idx` is the length of `inst_target_idx`, which
 * must hold one entry per instance, each below `n_targets`.  Returns the
 * number of counter-matrix entries, or -1 (outputs unspecified) when an
 * edge id, a target index, the instance offsets or the target-index
 * length are out of range, so no read or write ever leaves its buffer. */
REPRO_EXPORT long repro_assemble_index(long m, long n_instances,
                                       long n_memberships, long n_target_idx,
                                       long n_targets,
                                       const long *inst_indptr,
                                       const long *memberships,
                                       const long *inst_target_idx,
                                       long *edge_indptr, long *gain,
                                       long *edge_inst_ids, long *et_indptr,
                                       long *et_tidx, long *et_count,
                                       long *inst_slot, long *scratch,
                                       long *candidates, long *n_candidates,
                                       long *entry_offsets)
{
    long e, i, p, q, lo, t, runs = 0, offset = 0, found = 0;
    long *cursor = et_indptr; /* reused before pass 3 overwrites it */
    if (n_target_idx != n_instances || n_targets < 0 || inst_indptr[0] != 0
        || inst_indptr[n_instances] != n_memberships)
        return -1;
    for (i = 0; i < n_instances; i++)
        if ((unsigned long) inst_target_idx[i] >= (unsigned long) n_targets)
            return -1;
    for (i = 0; i < n_instances; i++)
        if (inst_indptr[i + 1] < inst_indptr[i])
            return -1;
    for (e = 0; e < m; e++)
        gain[e] = 0;
    for (p = 0; p < n_memberships; p++) {
        e = memberships[p];
        if (e < 0 || e >= m)
            return -1;
        gain[e] += 1;
    }
    for (e = 0; e < m; e++) {
        edge_indptr[e] = offset;
        cursor[e] = offset;
        offset += gain[e];
        if (gain[e] > 0)
            candidates[found++] = e;
    }
    edge_indptr[m] = offset;
    *n_candidates = found;
    for (t = 0; t <= n_targets; t++)
        entry_offsets[t] = 0;
    /* pass 2: scatter instance ids into their edges' rows, remembering
     * each sorted position's membership position */
    for (i = 0; i < n_instances; i++) {
        long stop = inst_indptr[i + 1];
        for (p = inst_indptr[i]; p < stop; p++) {
            q = cursor[memberships[p]]++;
            edge_inst_ids[q] = i;
            scratch[q] = p;
        }
    }
    /* pass 3: run-length encode the target along every edge row */
    et_indptr[0] = 0;
    lo = 0;
    for (e = 0; e < m; e++) {
        long hi = lo + gain[e], previous = -1;
        for (q = lo; q < hi; q++) {
            long tidx = inst_target_idx[edge_inst_ids[q]];
            if (tidx != previous) {
                et_tidx[runs] = tidx;
                et_count[runs] = 0;
                entry_offsets[tidx + 1] += 1;
                runs++;
                previous = tidx;
            }
            et_count[runs - 1] += 1;
            inst_slot[scratch[q]] = runs - 1;
        }
        et_indptr[e + 1] = runs;
        lo = hi;
    }
    for (t = 0; t < n_targets; t++)
        entry_offsets[t + 1] += entry_offsets[t];
    return runs;
}

/* ------------------------------------------------------------------ */
/* graph splice of a delta                                             */
/* ------------------------------------------------------------------ */

/* The new id of old node `x` (the identity without a node-id map). */
#define SPLICE_NODE(map, x) ((map) ? (map)[x] : (x))

static int splice_long_cmp(const void *a, const void *b)
{
    long x = *(const long *) a, y = *(const long *) b;
    return (x > y) - (x < y);
}

/* Directed entries to insert are (src, dst, edge id) rows; they sort by
 * (src, dst), which is also their CSR position order. */
static int splice_entry_cmp(const void *a, const void *b)
{
    const long *x = (const long *) a, *y = (const long *) b;
    if (x[0] != y[0])
        return x[0] < y[0] ? -1 : 1;
    return (x[1] > y[1]) - (x[1] < y[1]);
}

/* Whether old node `row` has a CSR row inside the `n_entries` entries. */
static int splice_row_ok(const long *indptr, long n, long n_entries, long row)
{
    return (unsigned long) row < (unsigned long) n && indptr[row] >= 0
           && indptr[row] <= indptr[row + 1] && indptr[row + 1] <= n_entries;
}

/* First position in [lo, hi) of the old `neighbors` whose new id is not
 * below `key`, or -1 for a neighbor that is no node id. */
static long splice_row_find(const long *neighbors, const long *map, long n,
                            long lo, long hi, long key)
{
    while (lo < hi) {
        long mid = lo + (hi - lo) / 2, x = neighbors[mid];
        if ((unsigned long) x >= (unsigned long) n)
            return -1;
        if (SPLICE_NODE(map, x) < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Copy the old edges [from, to) to new ids out, out + 1, ...: their
 * endpoint pairs (relabelled through `map`, if any) and their edge-id map
 * entries.  Returns 0 for an endpoint that is no node id.  Out-of-range
 * ids are clamped before they index `map`, so the loops need no branch. */
static int splice_copy_edges(const long *restrict pairs, const long *restrict map,
                             long n, long from, long to, long out,
                             long *restrict new_pairs,
                             long *restrict edge_id_map)
{
    long k, shift = out - from;
    unsigned long bad = 0;
    if (map) {
        for (k = 2 * from; k < 2 * to; k++) {
            unsigned long x = (unsigned long) pairs[k];
            bad |= x >= (unsigned long) n;
            new_pairs[k + 2 * shift] = map[x < (unsigned long) n ? x : 0];
        }
    } else if (to > from) {
        memcpy(new_pairs + 2 * out, pairs + 2 * from,
               (size_t) (2 * (to - from)) * sizeof(long));
    }
    for (k = from; k < to; k++)
        edge_id_map[k] = k + shift;
    return !bad;
}

/* Copy the old CSR entries [from, to) to `new_neighbors` / `new_incident`:
 * neighbors relabelled through `map` (if any), incident edge ids through
 * `edge_id_map`.  Returns 0 for a neighbor that is no node id or an
 * incident edge that is no edge id or was dropped (ids clamped before
 * they index, as in splice_copy_edges). */
static int splice_copy_entries(const long *restrict neighbors,
                               const long *restrict incident,
                               const long *restrict map, long n, long m,
                               const long *restrict edge_id_map, long from,
                               long to, long *restrict new_neighbors,
                               long *restrict new_incident)
{
    long k, count = to - from;
    unsigned long bad = 0;
    if (map) {
        for (k = 0; k < count; k++) {
            unsigned long x = (unsigned long) neighbors[from + k];
            bad |= x >= (unsigned long) n;
            new_neighbors[k] = map[x < (unsigned long) n ? x : 0];
        }
    } else if (count > 0) {
        memcpy(new_neighbors, neighbors + from, (size_t) count * sizeof(long));
    }
    for (k = 0; k < count; k++) {
        unsigned long e = (unsigned long) incident[from + k];
        long id = edge_id_map[e < (unsigned long) m ? e : 0];
        bad |= (e >= (unsigned long) m) | ((unsigned long) id >> 63);
        new_incident[k] = id;
    }
    return !bad;
}

/* How many old nodes have a new id below `x`. */
static long splice_old_below(const long *map, long n, long x)
{
    long lo = 0, hi = n;
    if (!map)
        return x < n ? x : n;
    while (lo < hi) {
        long mid = lo + (hi - lo) / 2;
        if (map[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Splice a delta into an IndexedGraph: the old graph has `n` nodes and
 * `m` edges, its endpoint-id `pairs` (2m, edge-id order), `indptr`
 * (n+1), `neighbors` and `incident` (2m each).  The delta removes the
 * `n_dropped` edge ids of `dropped` (strictly ascending) and adds the
 * `n_added` edges of `added`, pairs of new node ids (2 n_added, strictly
 * ascending as pairs).  `node_id_map` maps the old node ids to the
 * `n_new` new ones (strictly ascending), or is NULL when no node was
 * added (n_new == n).  One merge pass per table writes
 *   edge_id_map (m)           old edge id -> new, -1 for a dropped one
 *   new_pairs (2m')           the endpoint-id pairs in new edge-id order
 *   new_indptr (n_new + 1), new_neighbors (2m'), new_incident (2m')
 *                             the CSR, rows by src, neighbors ascending
 * with m' = m - n_dropped + n_added, exactly what a fresh build of the
 * updated graph gives (IndexedGraph._splice_numpy is the reference).
 * `scratch` holds 10 n_added + 2 n_dropped longs.  Returns m', or -1
 * (outputs unspecified) for an input out of range or out of order, an
 * added edge that is already there, or a CSR that does not hold the
 * dropped edges, so no read or write ever leaves its buffer. */
REPRO_EXPORT long repro_splice_graph(long n, long n_new, long m,
                                     const long *pairs, const long *indptr,
                                     const long *neighbors,
                                     const long *incident,
                                     const long *node_id_map,
                                     const long *dropped, long n_dropped,
                                     const long *added, long n_added,
                                     long *edge_id_map, long *new_pairs,
                                     long *new_indptr, long *new_neighbors,
                                     long *new_incident, long *scratch)
{
    const long *map = node_id_map;
    long n_entries = 2 * m, m_new = m - n_dropped + n_added;
    long *edge_at = scratch, *added_id = scratch + n_added;
    long *drop_at = scratch + 2 * n_added;
    long *entries = drop_at + 2 * n_dropped; /* 2 n_added rows of 3 */
    long *entry_at = entries + 6 * n_added;
    long i, j, k, x, p, lo, out, cursor, acc;

    if (n < 0 || m < 0 || n_dropped < 0 || n_added < 0 || n_dropped > m
        || n_new < n || (!map && n_new != n) || indptr[0] != 0
        || indptr[n] != n_entries)
        return -1;
    if (map)
        for (x = 0; x < n; x++)
            if (map[x] < 0 || map[x] >= n_new || (x > 0 && map[x] <= map[x - 1]))
                return -1;
    for (j = 0; j < n_dropped; j++)
        if (dropped[j] < 0 || dropped[j] >= m
            || (j > 0 && dropped[j] <= dropped[j - 1]))
            return -1;
    for (i = 0; i < n_added; i++) {
        long h = added[2 * i], t = added[2 * i + 1];
        if ((unsigned long) h >= (unsigned long) n_new
            || (unsigned long) t >= (unsigned long) n_new || h == t)
            return -1;
        if (i > 0 && (h < added[2 * i - 2]
                      || (h == added[2 * i - 2] && t <= added[2 * i - 1])))
            return -1;
    }

    /* edge table: each added pair goes before the first old pair (in new
     * ids) not below it; the added pairs ascend, so the searches do too */
    lo = 0;
    for (i = 0; i < n_added; i++) {
        long h = added[2 * i], t = added[2 * i + 1], hi = m;
        while (lo < hi) {
            long mid = lo + (hi - lo) / 2, a = pairs[2 * mid], b = pairs[2 * mid + 1];
            if ((unsigned long) a >= (unsigned long) n
                || (unsigned long) b >= (unsigned long) n)
                return -1;
            a = SPLICE_NODE(map, a);
            b = SPLICE_NODE(map, b);
            if (a < h || (a == h && b < t))
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < m && SPLICE_NODE(map, pairs[2 * lo]) == h
            && SPLICE_NODE(map, pairs[2 * lo + 1]) == t) {
            /* only a dropped edge may come back */
            long a = 0, b = n_dropped;
            while (a < b) {
                long mid = a + (b - a) / 2;
                if (dropped[mid] < lo)
                    a = mid + 1;
                else
                    b = mid;
            }
            if (a == n_dropped || dropped[a] != lo)
                return -1;
        }
        edge_at[i] = lo;
    }
    out = cursor = i = j = 0;
    for (;;) {
        long stop = m;
        int insert = -1;
        if (i < n_added && (j == n_dropped || edge_at[i] <= dropped[j])) {
            stop = edge_at[i];
            insert = 1;
        } else if (j < n_dropped) {
            stop = dropped[j];
            insert = 0;
        }
        if (!splice_copy_edges(pairs, map, n, cursor, stop, out, new_pairs,
                               edge_id_map))
            return -1;
        out += stop - cursor;
        if (insert < 0)
            break;
        if (insert) {
            new_pairs[2 * out] = added[2 * i];
            new_pairs[2 * out + 1] = added[2 * i + 1];
            added_id[i++] = out++;
            cursor = stop;
        } else {
            edge_id_map[stop] = -1;
            cursor = stop + 1;
            j++;
        }
    }

    /* the two directed CSR entries of every dropped edge, in old ids */
    for (j = 0; j < n_dropped; j++) {
        long a = pairs[2 * dropped[j]], b = pairs[2 * dropped[j] + 1];
        for (k = 0; k < 2; k++) {
            long src = k ? b : a, dst = k ? a : b;
            if (!splice_row_ok(indptr, n, n_entries, src))
                return -1;
            p = splice_row_find(neighbors, 0, n, indptr[src], indptr[src + 1], dst);
            if (p < 0 || p == indptr[src + 1] || neighbors[p] != dst
                || incident[p] != dropped[j])
                return -1;
            drop_at[2 * j + k] = p;
        }
    }
    qsort(drop_at, (size_t) (2 * n_dropped), sizeof(long), splice_long_cmp);

    /* the two directed entries of every added edge, and where each goes:
     * a fresh node's row is empty, at the old rows' boundary it sorts to */
    for (i = 0; i < n_added; i++) {
        long *row = entries + 6 * i;
        row[0] = row[4] = added[2 * i];
        row[1] = row[3] = added[2 * i + 1];
        row[2] = row[5] = added_id[i];
    }
    qsort(entries, (size_t) (2 * n_added), 3 * sizeof(long), splice_entry_cmp);
    for (i = 0; i < 2 * n_added; i++) {
        long src = entries[3 * i], dst = entries[3 * i + 1];
        long below = splice_old_below(map, n, src);
        if (below < n && SPLICE_NODE(map, below) == src) {
            if (!splice_row_ok(indptr, n, n_entries, below))
                return -1;
            p = splice_row_find(neighbors, map, n, indptr[below],
                                indptr[below + 1], dst);
            if (p < 0)
                return -1;
        } else {
            p = indptr[below];
        }
        entry_at[i] = p;
    }

    out = cursor = i = j = 0;
    for (;;) {
        long stop = n_entries;
        int insert = -1;
        if (i < 2 * n_added && (j == 2 * n_dropped || entry_at[i] <= drop_at[j])) {
            stop = entry_at[i];
            insert = 1;
        } else if (j < 2 * n_dropped) {
            stop = drop_at[j];
            insert = 0;
        }
        if (stop < cursor
            || !splice_copy_entries(neighbors, incident, map, n, m, edge_id_map,
                                    cursor, stop, new_neighbors + out,
                                    new_incident + out))
            return -1;
        out += stop - cursor;
        if (insert < 0)
            break;
        if (insert) {
            new_neighbors[out] = entries[3 * i + 1];
            new_incident[out++] = entries[3 * i + 2];
            cursor = stop;
            i++;
        } else {
            cursor = stop + 1;
            j++;
        }
    }

    /* indptr: the old row offsets relabelled into the new id space (a
     * fresh node's row starts where the next old row does), plus the
     * running sum of the degree changes */
    for (x = 0; x <= n_new; x++)
        new_indptr[x] = 0;
    for (j = 0; j < n_dropped; j++) {
        new_indptr[SPLICE_NODE(map, pairs[2 * dropped[j]]) + 1] -= 1;
        new_indptr[SPLICE_NODE(map, pairs[2 * dropped[j] + 1]) + 1] -= 1;
    }
    for (i = 0; i < 2 * n_added; i++)
        new_indptr[added[i] + 1] += 1;
    acc = 0;
    k = 0;
    for (x = 0; x <= n_new; x++) {
        acc += new_indptr[x];
        while (k < n && SPLICE_NODE(map, k) < x)
            k++;
        new_indptr[x] = indptr[k] + acc;
    }
    return m_new;
}
