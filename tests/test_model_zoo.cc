/**
 * @file
 * Conformance tests of the six-model zoo against Table I of the paper:
 * table counts, pooling regimes, attention structure, SLA targets and
 * size relationships between production and small variants.
 */
#include <gtest/gtest.h>

#include "model/model_zoo.h"

namespace hercules::model {
namespace {

int
countKind(const Graph& g, OpKind k)
{
    int n = 0;
    for (const auto& node : g.nodes())
        if (node.kind() == k)
            ++n;
    return n;
}

TEST(Zoo, AllModelsListed)
{
    EXPECT_EQ(allModels().size(), 6u);
}

TEST(Zoo, NamesMatchTable1)
{
    EXPECT_STREQ(modelName(ModelId::DlrmRmc1), "DLRM-RMC1");
    EXPECT_STREQ(modelName(ModelId::DlrmRmc2), "DLRM-RMC2");
    EXPECT_STREQ(modelName(ModelId::DlrmRmc3), "DLRM-RMC3");
    EXPECT_STREQ(modelName(ModelId::MtWnd), "MT-WnD");
    EXPECT_STREQ(modelName(ModelId::Din), "DIN");
    EXPECT_STREQ(modelName(ModelId::Dien), "DIEN");
}

TEST(Zoo, ServicesMatchTable1)
{
    EXPECT_STREQ(modelService(ModelId::DlrmRmc1), "Social Media");
    EXPECT_STREQ(modelService(ModelId::MtWnd), "Video");
    EXPECT_STREQ(modelService(ModelId::Din), "E-commerce");
}

TEST(Zoo, SlaTargetsMatchFig15)
{
    EXPECT_DOUBLE_EQ(defaultSlaMs(ModelId::DlrmRmc1), 20.0);
    EXPECT_DOUBLE_EQ(defaultSlaMs(ModelId::DlrmRmc2), 50.0);
    EXPECT_DOUBLE_EQ(defaultSlaMs(ModelId::DlrmRmc3), 50.0);
    EXPECT_DOUBLE_EQ(defaultSlaMs(ModelId::Din), 50.0);
    EXPECT_DOUBLE_EQ(defaultSlaMs(ModelId::Dien), 100.0);
    EXPECT_DOUBLE_EQ(defaultSlaMs(ModelId::MtWnd), 100.0);
}

TEST(Zoo, TableCountsMatchTable1)
{
    EXPECT_EQ(buildModel(ModelId::DlrmRmc1).num_tables, 10);
    EXPECT_EQ(buildModel(ModelId::DlrmRmc2).num_tables, 100);
    EXPECT_EQ(buildModel(ModelId::DlrmRmc3).num_tables, 10);
    EXPECT_EQ(buildModel(ModelId::MtWnd).num_tables, 26);
    EXPECT_EQ(buildModel(ModelId::Din).num_tables, 3);
    EXPECT_EQ(buildModel(ModelId::Dien).num_tables, 3);
}

TEST(Zoo, EmbeddingNodeCountMatchesTables)
{
    for (ModelId id : allModels()) {
        Model m = buildModel(id);
        EXPECT_EQ(countKind(m.graph, OpKind::EmbeddingLookup),
                  m.num_tables)
            << m.name;
    }
}

TEST(Zoo, DlrmModelsArePooled)
{
    for (ModelId id :
         {ModelId::DlrmRmc1, ModelId::DlrmRmc2, ModelId::DlrmRmc3}) {
        Model m = buildModel(id);
        EXPECT_TRUE(m.pooled) << m.name;
        EXPECT_GE(m.pooling_min, 20) << m.name;
    }
}

TEST(Zoo, MtWndIsOneHot)
{
    Model m = buildModel(ModelId::MtWnd);
    EXPECT_FALSE(m.pooled);
    EXPECT_DOUBLE_EQ(m.pooling_min, 1.0);
    EXPECT_DOUBLE_EQ(m.pooling_max, 1.0);
}

TEST(Zoo, DinHasAttentionNoGru)
{
    Model m = buildModel(ModelId::Din);
    EXPECT_EQ(countKind(m.graph, OpKind::Attention), 1);
    EXPECT_EQ(countKind(m.graph, OpKind::Gru), 0);
}

TEST(Zoo, DienHasAttentionAndGru)
{
    Model m = buildModel(ModelId::Dien);
    EXPECT_EQ(countKind(m.graph, OpKind::Attention), 1);
    EXPECT_EQ(countKind(m.graph, OpKind::Gru), 1);
}

TEST(Zoo, DinBehaviorSequenceOnLargestTable)
{
    Model m = buildModel(ModelId::Din);
    // The behaviour-sequence lookup (100-1000 gathers) must target the
    // largest table (user-history over the item corpus).
    const EmbeddingParams* seq_table = nullptr;
    int64_t max_rows = 0;
    for (const auto& n : m.graph.nodes()) {
        if (n.kind() != OpKind::EmbeddingLookup)
            continue;
        const auto& p = std::get<EmbeddingParams>(n.params);
        if (p.rows > max_rows) {
            max_rows = p.rows;
            seq_table = &p;
        }
    }
    ASSERT_NE(seq_table, nullptr);
    EXPECT_GE(seq_table->pooling_max, 1000);
}

TEST(Zoo, MtWndHasMultipleTaskTowers)
{
    Model m = buildModel(ModelId::MtWnd);
    // 5 towers x 4 FC layers + 1 wide FC = 21 FC nodes.
    EXPECT_EQ(countKind(m.graph, OpKind::Fc), 21);
}

TEST(Zoo, DlrmHasInteraction)
{
    for (ModelId id :
         {ModelId::DlrmRmc1, ModelId::DlrmRmc2, ModelId::DlrmRmc3}) {
        Model m = buildModel(id);
        EXPECT_EQ(countKind(m.graph, OpKind::Interaction), 1) << m.name;
    }
}

TEST(Zoo, GraphsAreAcyclic)
{
    for (ModelId id : allModels()) {
        Model m = buildModel(id);
        EXPECT_EQ(m.graph.topoOrder().size(),
                  static_cast<size_t>(m.graph.size()))
            << m.name;
    }
}

TEST(Zoo, EmbeddingDominatesFootprint)
{
    // Paper: >95% of the model footprint is embeddings.
    for (ModelId id : allModels()) {
        Model m = buildModel(id);
        double frac = static_cast<double>(m.embeddingBytes()) /
                      static_cast<double>(m.totalBytes());
        EXPECT_GT(frac, 0.95) << m.name;
    }
}

TEST(Zoo, SmallVariantFitsGpuMemory)
{
    // The paper's accelerator characterization uses small variants that
    // fit one V100 (16 GB).
    for (ModelId id : allModels()) {
        Model m = buildModel(id, Variant::Small);
        EXPECT_LT(m.totalBytes(), 15ll << 30) << m.name;
    }
}

TEST(Zoo, ProdLargerThanSmall)
{
    for (ModelId id : allModels()) {
        EXPECT_GT(buildModel(id, Variant::Prod).totalBytes(),
                  buildModel(id, Variant::Small).totalBytes())
            << modelName(id);
    }
}

TEST(Zoo, ProdFitsSmallestHost)
{
    // Every production model must fit the 64 GB T1 host: the zoo caps
    // the Table I row counts of MT-WnD (20M) and DIN/DIEN (300M) for it.
    for (ModelId id : allModels()) {
        Model m = buildModel(id);
        EXPECT_LT(m.totalBytes(), static_cast<int64_t>(0.95 * 64 *
                                                       (1ll << 30)))
            << m.name;
    }
}

TEST(Zoo, TableSizesSpreadGeometrically)
{
    Model m = buildModel(ModelId::Din);
    std::vector<int64_t> rows;
    for (const auto& n : m.graph.nodes())
        if (n.kind() == OpKind::EmbeddingLookup)
            rows.push_back(std::get<EmbeddingParams>(n.params).rows);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows.front(), m.rows_min);
    EXPECT_NEAR(static_cast<double>(rows.back()),
                static_cast<double>(m.rows_max),
                static_cast<double>(m.rows_max) * 0.01);
    EXPECT_LT(rows[0], rows[1]);
    EXPECT_LT(rows[1], rows[2]);
}

TEST(Zoo, NameIncludesVariantSuffix)
{
    EXPECT_EQ(buildModel(ModelId::Din, Variant::Small).name,
              "DIN (small)");
    EXPECT_EQ(buildModel(ModelId::Din, Variant::Prod).name, "DIN");
}

/** Parameterized sanity across the whole zoo. */
class ZooEveryModel
    : public ::testing::TestWithParam<std::tuple<ModelId, Variant>>
{
};

TEST_P(ZooEveryModel, BuildsConsistently)
{
    auto [id, variant] = GetParam();
    Model m = buildModel(id, variant);
    EXPECT_GT(m.graph.size(), 0);
    EXPECT_GT(m.embeddingBytes(), 0);
    EXPECT_GT(m.denseParamBytes(), 0);
    EXPECT_GT(m.sla_ms, 0.0);
    EXPECT_TRUE(m.graph.hasStage(Stage::Sparse));
    EXPECT_TRUE(m.graph.hasStage(Stage::Dense));
    // Rebuilding produces the identical structure (pure function).
    Model m2 = buildModel(id, variant);
    EXPECT_EQ(m.graph.size(), m2.graph.size());
    EXPECT_EQ(m.embeddingBytes(), m2.embeddingBytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAndVariants, ZooEveryModel,
    ::testing::Combine(::testing::ValuesIn(allModels()),
                       ::testing::Values(Variant::Prod, Variant::Small)));

}  // namespace
}  // namespace hercules::model
