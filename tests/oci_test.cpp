#include <gtest/gtest.h>

#include <thread>

#include "oci/oci.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

namespace comt::oci {
namespace {

vfs::Filesystem layer_tree(std::string_view marker) {
  vfs::Filesystem fs;
  EXPECT_TRUE(fs.write_file("/marker", std::string(marker)).ok());
  EXPECT_TRUE(fs.write_file("/shared", "same in every layer").ok());
  return fs;
}

ImageConfig sample_config() {
  ImageConfig config;
  config.architecture = "amd64";
  config.config.env = {"PATH=/usr/bin", "LANG=C"};
  config.config.entrypoint = {"/app/run"};
  config.config.cmd = {"--default"};
  config.config.working_dir = "/app";
  config.config.labels["vendor"] = "comtainer";
  return config;
}

TEST(DigestTest, MatchesSha256) {
  Digest digest = Digest::of_blob("abc");
  EXPECT_EQ(digest.value,
            "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(DescriptorTest, JsonRoundTrip) {
  Descriptor descriptor;
  descriptor.media_type = std::string(kMediaTypeLayer);
  descriptor.digest = Digest::of_blob("x");
  descriptor.size = 1;
  descriptor.annotations["note"] = "hello";
  auto back = Descriptor::from_json(descriptor.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().media_type, descriptor.media_type);
  EXPECT_EQ(back.value().digest, descriptor.digest);
  EXPECT_EQ(back.value().size, 1u);
  EXPECT_EQ(back.value().annotations.at("note"), "hello");
}

TEST(DescriptorTest, MissingDigestRejected) {
  json::Object object;
  object.emplace_back("mediaType", json::Value("x"));
  EXPECT_FALSE(Descriptor::from_json(json::Value(std::move(object))).ok());
}

TEST(ImageConfigTest, JsonRoundTrip) {
  ImageConfig config = sample_config();
  config.diff_ids = {Digest::of_blob("l1"), Digest::of_blob("l2")};
  config.history = {"step one", "step two"};
  auto back = ImageConfig::from_json(config.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().architecture, "amd64");
  EXPECT_EQ(back.value().config.env, config.config.env);
  EXPECT_EQ(back.value().config.entrypoint, config.config.entrypoint);
  EXPECT_EQ(back.value().config.labels.at("vendor"), "comtainer");
  EXPECT_EQ(back.value().diff_ids, config.diff_ids);
  EXPECT_EQ(back.value().history, config.history);
}

TEST(LayoutTest, BlobStoreIsContentAddressed) {
  Layout layout;
  Descriptor a = layout.put_blob("hello", "text/plain");
  Descriptor b = layout.put_blob("hello", "text/plain");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(layout.blob_count(), 1u);
  EXPECT_EQ(layout.get_blob(a.digest).value(), "hello");
  EXPECT_FALSE(layout.get_blob(Digest{"sha256:0000"}).ok());
}

TEST(LayoutTest, CreateAndFindImage) {
  Layout layout;
  auto image = layout.create_image(sample_config(), {layer_tree("one")}, "app:v1");
  ASSERT_TRUE(image.ok());
  auto found = layout.find_image("app:v1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().manifest_digest, image.value().manifest_digest);
  EXPECT_EQ(found.value().config.config.entrypoint,
            std::vector<std::string>{"/app/run"});
  EXPECT_FALSE(layout.find_image("missing:tag").ok());
}

TEST(LayoutTest, FlattenAppliesLayersInOrder) {
  Layout layout;
  vfs::Filesystem lower = layer_tree("lower");
  vfs::Filesystem upper;
  ASSERT_TRUE(upper.write_file("/marker", "upper").ok());
  ASSERT_TRUE(upper.write_file("/.wh.shared", "").ok());
  auto image = layout.create_image(sample_config(), {lower, upper}, "stacked");
  ASSERT_TRUE(image.ok());
  auto rootfs = layout.flatten(image.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/marker").value(), "upper");
  EXPECT_FALSE(rootfs.value().exists("/shared"));
}

TEST(LayoutTest, AppendLayerDerivesNewImage) {
  Layout layout;
  auto base = layout.create_image(sample_config(), {layer_tree("base")}, "app:v1");
  ASSERT_TRUE(base.ok());
  vfs::Filesystem extra;
  ASSERT_TRUE(extra.write_file("/.coMtainer/cache/x", "cache data").ok());
  auto extended = layout.append_layer(base.value(), extra, "coMtainer-build", "app:v1+coM");
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended.value().manifest.layers.size(), 2u);
  EXPECT_EQ(extended.value().config.history.back(), "coMtainer-build");
  // The original image is untouched (the paper's layering argument).
  auto original = layout.find_image("app:v1");
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original.value().manifest.layers.size(), 1u);
  auto rootfs = layout.flatten(extended.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/.coMtainer/cache/x").value(), "cache data");
  EXPECT_EQ(rootfs.value().read_file("/marker").value(), "base");
}

TEST(LayoutTest, RetaggingReplacesIndexEntry) {
  Layout layout;
  auto v1 = layout.create_image(sample_config(), {layer_tree("one")}, "app:latest");
  ASSERT_TRUE(v1.ok());
  auto v2 = layout.create_image(sample_config(), {layer_tree("two")}, "app:latest");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(layout.tags(), std::vector<std::string>{"app:latest"});
  auto found = layout.find_image("app:latest");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().manifest_digest, v2.value().manifest_digest);
}

TEST(LayoutTest, ManifestRequiresBlobsPresent) {
  Layout layout;
  Manifest manifest;
  manifest.config.media_type = std::string(kMediaTypeConfig);
  manifest.config.digest = Digest::of_blob("not stored");
  auto result = layout.add_manifest(manifest, "broken");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::not_found);
}

TEST(LayoutTest, IndexJsonCarriesRefNames) {
  Layout layout;
  ASSERT_TRUE(layout.create_image(sample_config(), {layer_tree("a")}, "a:1").ok());
  ASSERT_TRUE(layout.create_image(sample_config(), {layer_tree("b")}, "b:2").ok());
  json::Value index = layout.index_json();
  const json::Value* manifests = index.find("manifests");
  ASSERT_NE(manifests, nullptr);
  ASSERT_EQ(manifests->as_array().size(), 2u);
  EXPECT_EQ(manifests->as_array()[0]
                .find("annotations")
                ->get_string(std::string(kRefNameAnnotation)),
            "a:1");
}

TEST(LayoutTest, FsckDetectsHealthyStore) {
  Layout layout;
  ASSERT_TRUE(layout.create_image(sample_config(), {layer_tree("x")}, "x:1").ok());
  EXPECT_TRUE(layout.fsck().ok());
}

TEST(LayoutTest, ManifestJsonRoundTrip) {
  Layout layout;
  auto image = layout.create_image(sample_config(), {layer_tree("m")}, "m:1");
  ASSERT_TRUE(image.ok());
  auto back = Manifest::from_json(image.value().manifest.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().config.digest, image.value().manifest.config.digest);
  ASSERT_EQ(back.value().layers.size(), 1u);
  EXPECT_EQ(back.value().layers[0].digest, image.value().manifest.layers[0].digest);
}

// ---- Flatten memo ------------------------------------------------------------

// Flatten without any memo: every layer unpacked as stored, folded over an
// empty root.
Result<vfs::Filesystem> fold_layers(const Layout& layout, const Image& image) {
  vfs::Filesystem root;
  for (const Descriptor& layer : image.manifest.layers) {
    COMT_TRY(vfs::Filesystem tree, layout.read_layer(layer));
    COMT_TRY_STATUS(vfs::apply_layer(root, tree));
  }
  return root;
}

// `image`'s layers in a brand-new layout, whose memo has never seen them.
Layout cold_layout(const Layout& source, const Image& image) {
  Layout out;
  for (const Descriptor& layer : image.manifest.layers) {
    out.put_blob(source.get_blob(layer.digest).value(), layer.media_type);
  }
  return out;
}

// Regular files whose node two trees share: a flatten served from the memo
// shares every bottom-layer node the upper layers leave alone, while two
// unpacks of the same blob never share one.
std::size_t shared_files(const vfs::Filesystem& a, const vfs::Filesystem& b) {
  std::size_t shared = 0;
  a.walk([&](const std::string& path, const vfs::Node& node) {
    if (node.type == vfs::NodeType::regular && b.lookup(path) == &node) ++shared;
    return true;
  });
  return shared;
}

// Both flattens fail alike, or both give the same tree.
void expect_same_flatten(const Result<vfs::Filesystem>& got,
                         const Result<vfs::Filesystem>& expected) {
  ASSERT_EQ(got.ok(), expected.ok());
  if (expected.ok()) {
    EXPECT_TRUE(got.value() == expected.value());
  } else {
    EXPECT_EQ(got.error().code, expected.error().code);
  }
}

// A two-layer image whose bottom layer holds "/marker" = `marker`, which the
// top layer leaves alone.
Image two_layer_image(Layout& layout, std::string_view marker) {
  vfs::Filesystem upper;
  EXPECT_TRUE(upper.write_file("/upper-only", "top").ok());
  auto image = layout.create_image(sample_config(), {layer_tree(marker), upper}, "memo");
  EXPECT_TRUE(image.ok());
  return image.value();
}

TEST(LayoutTest, MemoizedFlattenOfEveryCorpusImageEqualsAColdFlatten) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  for (const workloads::AppSpec& app : workloads::corpus()) {
    ASSERT_TRUE(world.prepare(app).ok()) << app.name;
  }
  const Layout& warm = world.layout();
  for (const std::string& tag : warm.tags()) {
    SCOPED_TRACE(tag);
    auto image = warm.find_image(tag);
    ASSERT_TRUE(image.ok());
    auto first = warm.flatten(image.value());
    auto memoized = warm.flatten(image.value());
    ASSERT_TRUE(first.ok() && memoized.ok());
    EXPECT_GT(shared_files(first.value(), memoized.value()), 0u);
    auto cold = cold_layout(warm, image.value()).flatten(image.value());
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(memoized.value() == cold.value());
    EXPECT_EQ(shared_files(memoized.value(), cold.value()), 0u);
  }
}

TEST(LayoutTest, ACopyThatDamagesTheMemoizedBottomLayerNeverGetsTheMemoizedTree) {
  Layout original;
  Image image = two_layer_image(original, "lower");
  auto memoized = original.flatten(image);
  ASSERT_TRUE(memoized.ok());

  Layout damaged = original;
  const Digest& bottom = image.manifest.layers.front().digest;
  std::string bytes = damaged.get_blob(bottom).value();
  const std::size_t at = bytes.find("lower");
  ASSERT_NE(at, std::string::npos);
  bytes[at] = 'L';
  damaged.set_blob_bytes(bottom, bytes);

  auto got = damaged.flatten(image);
  expect_same_flatten(got, fold_layers(damaged, image));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().read_file("/marker").value(), "Lower");

  auto again = original.flatten(image);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value() == memoized.value());
  EXPECT_EQ(again.value().lookup("/marker"), memoized.value().lookup("/marker"));
}

TEST(LayoutTest, FlattenAfterRemovingTheMemoizedBottomLayerIsNotFound) {
  Layout original;
  Image image = two_layer_image(original, "lower");
  ASSERT_TRUE(original.flatten(image).ok());
  Layout copy = original;
  ASSERT_GT(copy.remove_blob(image.manifest.layers.front().digest), 0u);
  auto rootfs = copy.flatten(image);
  ASSERT_FALSE(rootfs.ok());
  EXPECT_EQ(rootfs.error().code, Errc::not_found);
  EXPECT_TRUE(original.flatten(image).ok());
}

TEST(LayoutTest, ATornBottomLayerIsNeverServedFromOrAddedToTheMemo) {
  Layout original;
  Image image = two_layer_image(original, "lower");
  auto memoized = original.flatten(image);
  ASSERT_TRUE(memoized.ok());
  const Descriptor& bottom = image.manifest.layers.front();
  const std::string bytes = original.get_blob(bottom.digest).value();

  // A torn re-put over a memoized blob.
  support::FaultInjector faults;
  Layout torn = original;
  torn.set_fault_injector(&faults);
  faults.tear_next(kBlobPutSite);
  EXPECT_THROW(torn.put_blob(bytes, kMediaTypeLayer), support::CrashInjected);
  expect_same_flatten(torn.flatten(image), fold_layers(torn, image));
  EXPECT_LT(torn.get_blob(bottom.digest).value().size(), bytes.size());

  // A torn first put, flattened before any intact copy was: the torn tree
  // must not reach the memo either.
  Layout fresh;
  fresh.set_fault_injector(&faults);
  faults.tear_next(kBlobPutSite);
  EXPECT_THROW(fresh.put_blob(bytes, kMediaTypeLayer), support::CrashInjected);
  for (std::size_t i = 1; i < image.manifest.layers.size(); ++i) {
    const Descriptor& layer = image.manifest.layers[i];
    fresh.put_blob(original.get_blob(layer.digest).value(), layer.media_type);
  }
  expect_same_flatten(fresh.flatten(image), fold_layers(fresh, image));
  Layout healed = fresh;
  healed.put_blob(bytes, kMediaTypeLayer);  // no tear armed: the true bytes
  auto rootfs = healed.flatten(image);
  ASSERT_TRUE(rootfs.ok());
  EXPECT_TRUE(rootfs.value() == memoized.value());
  expect_same_flatten(fresh.flatten(image), fold_layers(fresh, image));
}

TEST(LayoutTest, TwoCopiesFlattenOneImageOnTwoThreads) {
  Layout original;
  vfs::Filesystem upper;
  ASSERT_TRUE(upper.write_file("/upper-only", "top").ok());
  ASSERT_TRUE(upper.write_file("/.wh.shared", "").ok());
  auto image = original.create_image(sample_config(), {layer_tree("lower"), upper}, "race");
  ASSERT_TRUE(image.ok());
  auto expected = fold_layers(original, image.value());
  ASSERT_TRUE(expected.ok());

  Layout copies[2] = {original, original};
  bool all_equal[2] = {false, false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      all_equal[t] = true;
      for (int round = 0; round < 50; ++round) {
        auto rootfs = copies[t].flatten(image.value());
        all_equal[t] = all_equal[t] && rootfs.ok() && rootfs.value() == expected.value();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(all_equal[0]);
  EXPECT_TRUE(all_equal[1]);
}

// The paper's §4.5 file-system simulator: flattening multiple layers with
// deletes/opaque markers, parameterized over layer counts.
class FlattenDepth : public ::testing::TestWithParam<int> {};

TEST_P(FlattenDepth, LastWriterWins) {
  Layout layout;
  std::vector<vfs::Filesystem> layers;
  for (int i = 0; i < GetParam(); ++i) {
    vfs::Filesystem layer;
    ASSERT_TRUE(layer.write_file("/generation", std::to_string(i)).ok());
    ASSERT_TRUE(layer.write_file("/file" + std::to_string(i), "mine").ok());
    layers.push_back(std::move(layer));
  }
  auto image = layout.create_image(sample_config(), layers, "depth");
  ASSERT_TRUE(image.ok());
  auto rootfs = layout.flatten(image.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/generation").value(),
            std::to_string(GetParam() - 1));
  for (int i = 0; i < GetParam(); ++i) {
    EXPECT_TRUE(rootfs.value().exists("/file" + std::to_string(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, FlattenDepth, ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace comt::oci
