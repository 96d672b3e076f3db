#include "model/model_zoo.h"

#include <cmath>

#include "util/logging.h"

namespace hercules::model {

const std::vector<ModelId>&
allModels()
{
    static const std::vector<ModelId> ids = {
        ModelId::DlrmRmc1, ModelId::DlrmRmc2, ModelId::DlrmRmc3,
        ModelId::MtWnd,    ModelId::Din,      ModelId::Dien,
    };
    return ids;
}

const char*
modelName(ModelId id)
{
    switch (id) {
      case ModelId::DlrmRmc1: return "DLRM-RMC1";
      case ModelId::DlrmRmc2: return "DLRM-RMC2";
      case ModelId::DlrmRmc3: return "DLRM-RMC3";
      case ModelId::MtWnd:    return "MT-WnD";
      case ModelId::Din:      return "DIN";
      case ModelId::Dien:     return "DIEN";
    }
    panic("unknown ModelId %d", static_cast<int>(id));
}

const char*
modelService(ModelId id)
{
    switch (id) {
      case ModelId::DlrmRmc1:
      case ModelId::DlrmRmc2:
      case ModelId::DlrmRmc3: return "Social Media";
      case ModelId::MtWnd:    return "Video";
      case ModelId::Din:
      case ModelId::Dien:     return "E-commerce";
    }
    panic("unknown ModelId %d", static_cast<int>(id));
}

double
defaultSlaMs(ModelId id)
{
    switch (id) {
      case ModelId::DlrmRmc1: return 20.0;
      case ModelId::DlrmRmc2: return 50.0;
      case ModelId::DlrmRmc3: return 50.0;
      case ModelId::Din:      return 50.0;
      case ModelId::Dien:     return 100.0;
      case ModelId::MtWnd:    return 100.0;
    }
    panic("unknown ModelId %d", static_cast<int>(id));
}

namespace {

/**
 * Spread `count` table sizes geometrically across [rows_min, rows_max] so
 * a model has a realistic mix of small and large tables.
 */
int64_t
tableRows(int table, int count, int64_t rows_min, int64_t rows_max)
{
    if (count <= 1 || rows_min == rows_max)
        return rows_max;
    double t = static_cast<double>(table) / static_cast<double>(count - 1);
    double lo = std::log(static_cast<double>(rows_min));
    double hi = std::log(static_cast<double>(rows_max));
    return static_cast<int64_t>(std::exp(lo + t * (hi - lo)));
}

/** Append a chain of FC(+activation) layers; returns the last node id. */
int
addFcChain(Graph& g, const std::string& prefix,
           const std::vector<int>& dims, int dep)
{
    int prev = dep;
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        FcParams fc;
        fc.in_dim = dims[i];
        fc.out_dim = dims[i + 1];
        std::vector<int> deps;
        if (prev >= 0)
            deps.push_back(prev);
        prev = g.addNode(prefix + "_fc" + std::to_string(i), fc,
                         Stage::Dense, deps);
        // Fuse-able elementwise activation after each FC.
        ActivationParams act;
        act.dim = dims[i + 1];
        prev = g.addNode(prefix + "_act" + std::to_string(i), act,
                         Stage::Dense, {prev});
    }
    return prev;
}

/** Add the model's embedding-lookup nodes; returns their ids. */
std::vector<int>
addEmbeddings(Graph& g, Model& m, double zipf)
{
    std::vector<int> ids;
    for (int t = 0; t < m.num_tables; ++t) {
        EmbeddingParams e;
        e.rows = tableRows(t, m.num_tables, m.rows_min, m.rows_max);
        e.emb_dim = m.emb_dim;
        e.pooling_min = m.pooling_min;
        e.pooling_max = m.pooling_max;
        e.pooled = m.pooled;
        e.zipf_exponent = zipf;
        ids.push_back(g.addNode("emb" + std::to_string(t), e, Stage::Sparse));
    }
    return ids;
}

Model
buildDlrm(ModelId id, Variant variant)
{
    Model m;
    m.id = id;
    m.variant = variant;
    m.emb_dim = 32;
    m.pooled = true;

    std::vector<int> bottom, predict;
    switch (id) {
      case ModelId::DlrmRmc1:
        m.num_tables = 10;
        m.rows_min = variant == Variant::Prod ? 1'000'000 : 500'000;
        m.rows_max = variant == Variant::Prod ? 5'000'000 : 1'000'000;
        m.pooling_min = 20;
        m.pooling_max = 160;
        bottom = {256, 128, 32};
        predict = {256, 64, 1};
        break;
      case ModelId::DlrmRmc2:
        m.num_tables = 100;
        m.rows_min = variant == Variant::Prod ? 1'000'000 : 300'000;
        m.rows_max = variant == Variant::Prod ? 5'000'000 : 1'000'000;
        m.pooling_min = 20;
        m.pooling_max = 160;
        bottom = {256, 128, 32};
        predict = {512, 128, 1};
        break;
      case ModelId::DlrmRmc3:
        m.num_tables = 10;
        m.rows_min = variant == Variant::Prod ? 10'000'000 : 500'000;
        m.rows_max = variant == Variant::Prod ? 20'000'000 : 1'000'000;
        m.pooling_min = 20;
        m.pooling_max = 50;
        bottom = {2560, 512, 32};
        predict = {512, 128, 1};
        break;
      default:
        panic("buildDlrm: not a DLRM id");
    }

    Graph& g = m.graph;
    auto embs = addEmbeddings(g, m, 0.95);
    int bot = addFcChain(g, "bottom", bottom, -1);

    InteractionParams inter;
    inter.num_features = m.num_tables + 1;  // sparse vectors + bottom out
    inter.feature_dim = m.emb_dim;
    std::vector<int> ideps = embs;
    ideps.push_back(bot);
    int interact = g.addNode("interaction", inter, Stage::Dense, ideps);

    ConcatParams cat;
    cat.total_dim = predict.front();
    int catn = g.addNode("concat", cat, Stage::Dense, {interact});
    addFcChain(g, "predict", predict, catn);
    return m;
}

Model
buildMtWnd(Variant variant)
{
    Model m;
    m.id = ModelId::MtWnd;
    m.variant = variant;
    m.num_tables = 26;
    // Table I quotes 3M-40M rows; we cap at 20M so the production
    // variant fits the smallest (64 GB) host in Table II. The small
    // variant (~8 GB) fits one V100 but not two copies, which is what
    // limits Baymax-style model co-location for MT-WnD in the paper
    // (Fig 6: 1.03x).
    m.rows_min = variant == Variant::Prod ? 3'000'000 : 1'200'000;
    m.rows_max = variant == Variant::Prod ? 20'000'000 : 1'200'000;
    m.emb_dim = 64;
    m.pooling_min = 1;
    m.pooling_max = 1;
    m.pooled = false;

    Graph& g = m.graph;
    auto embs = addEmbeddings(g, m, 0.9);

    // Wide linear part over the raw dense features.
    int wide = addFcChain(g, "wide", {256, 1}, -1);

    // Wide-and-Deep has no bottom MLP in Table I; sparse embeddings plus
    // raw dense features are concatenated and fed to N task towers.
    ConcatParams cat;
    cat.total_dim = static_cast<int64_t>(m.num_tables) * m.emb_dim + 256;
    std::vector<int> cdeps = embs;
    cdeps.push_back(wide);
    int catn = g.addNode("concat", cat, Stage::Dense, cdeps);

    // Multi-task: N independent prediction towers (N = 5), each
    // 1024-512-256 with a scalar head. Independent towers are the one
    // place op-parallelism finds work in this model.
    const int num_tasks = 5;
    for (int t = 0; t < num_tasks; ++t) {
        addFcChain(g, "task" + std::to_string(t),
                   {static_cast<int>(cat.total_dim), 1024, 512, 256, 1},
                   catn);
    }
    return m;
}

Model
buildDinDien(ModelId id, Variant variant)
{
    Model m;
    m.id = id;
    m.variant = variant;
    m.num_tables = 3;
    // Table I quotes 0.1M-600M rows; we cap at 300M so the production
    // variant fits the smallest (64 GB) host in Table II.
    m.rows_min = 100'000;
    m.rows_max = variant == Variant::Prod ? 300'000'000 : 1'000'000;
    m.emb_dim = 32;
    // Table I: lookups "1, 100 - 1000" — the candidate/user profile
    // lookups are one-hot, the behaviour-sequence lookup gathers the
    // user's history. We model the sequence on the largest table.
    m.pooling_min = 1;
    m.pooling_max = 1;
    m.pooled = false;

    Graph& g = m.graph;
    std::vector<int> embs;
    for (int t = 0; t < m.num_tables; ++t) {
        EmbeddingParams e;
        e.rows = tableRows(t, m.num_tables, m.rows_min, m.rows_max);
        e.emb_dim = m.emb_dim;
        e.pooled = false;
        e.zipf_exponent = 0.85;
        if (t == m.num_tables - 1) {
            // Behaviour-sequence gather: 100-1000 rows per item.
            e.pooling_min = 100;
            e.pooling_max = 1000;
        } else {
            e.pooling_min = 1;
            e.pooling_max = 1;
        }
        embs.push_back(g.addNode("emb" + std::to_string(t), e,
                                 Stage::Sparse));
    }

    int attn_in = embs.back();
    if (id == ModelId::Dien) {
        // DIEN: interest-extractor GRU + interest-evolution AUGRU over
        // the behaviour sequence, then the attention readout.
        GruParams gru;
        gru.input_dim = m.emb_dim;
        gru.hidden_dim = m.emb_dim;
        gru.seq_len_min = 100;
        gru.seq_len_max = 1000;
        gru.layers = 2;
        attn_in = g.addNode("gru", gru, Stage::Dense, {attn_in});
    }

    AttentionParams att;
    att.behavior_dim = m.emb_dim;
    att.hidden_dim = 36;
    att.seq_len_min = 100;
    att.seq_len_max = 1000;
    std::vector<int> adeps = {attn_in, embs[0]};
    int attn = g.addNode("attention", att, Stage::Dense, adeps);

    ConcatParams cat;
    cat.total_dim = 200;
    std::vector<int> cdeps = embs;
    cdeps.push_back(attn);
    int catn = g.addNode("concat", cat, Stage::Dense, cdeps);
    addFcChain(g, "predict", {200, 80, 2}, catn);
    return m;
}

}  // namespace

int64_t
Model::embeddingBytes() const
{
    int64_t total = 0;
    for (const auto& n : graph.nodes()) {
        if (n.kind() == OpKind::EmbeddingLookup)
            total += std::get<EmbeddingParams>(n.params).tableBytes();
    }
    return total;
}

int64_t
Model::denseParamBytes() const
{
    int64_t total = 0;
    for (const auto& n : graph.nodes()) {
        switch (n.kind()) {
          case OpKind::Fc: {
            const auto& p = std::get<FcParams>(n.params);
            total += static_cast<int64_t>(p.in_dim) * p.out_dim * 4;
            break;
          }
          case OpKind::Attention: {
            const auto& p = std::get<AttentionParams>(n.params);
            total += static_cast<int64_t>(3 * p.behavior_dim) *
                     p.hidden_dim * 4;
            break;
          }
          case OpKind::Gru: {
            const auto& p = std::get<GruParams>(n.params);
            total += static_cast<int64_t>(p.layers) * 3 *
                     (p.input_dim + p.hidden_dim) * p.hidden_dim * 4;
            break;
          }
          default:
            break;
        }
    }
    return total;
}

Model
buildModel(ModelId id, Variant variant)
{
    Model m;
    switch (id) {
      case ModelId::DlrmRmc1:
      case ModelId::DlrmRmc2:
      case ModelId::DlrmRmc3:
        m = buildDlrm(id, variant);
        break;
      case ModelId::MtWnd:
        m = buildMtWnd(variant);
        break;
      case ModelId::Din:
      case ModelId::Dien:
        m = buildDinDien(id, variant);
        break;
    }
    m.name = std::string(modelName(id)) +
             (variant == Variant::Small ? " (small)" : "");
    m.sla_ms = defaultSlaMs(id);
    return m;
}

}  // namespace hercules::model
