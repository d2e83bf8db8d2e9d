// Fig. 10 reproduction: FCC / FC / statistical encodings across the four
// target devices and the three supernets.
//
// Training sizes follow the paper: 8,000 for the RTX 4090, 5,000 for the
// Threadripper CPU and the RTX 3080 Max-Q, 1,200 for the Raspberry Pi 4
// (measurement there is slow). Paper reference averages, ResNet:
//   FCC 97/88/93/99, FC 90/84/82/99, statistical 85/83/71/98
// (order: RTX 4090, Threadripper, RTX 3080 Max-Q, RPi 4); MobileNetV3 and
// DenseNet sit high (94-99%) for all unit-level encodings.
#include <iostream>

#include "bench_util.hpp"
#include "common/strings.hpp"

using namespace esm;
using namespace esm::bench;

int main(int argc, char** argv) {
  ArgParser args("Fig. 10: encoding effectiveness across devices");
  args.add_int("test", 1500, "test-set size per (device, space)");
  args.add_int("epochs", 150, "training epochs");
  args.add_int("seed", 10, "experiment seed");
  args.add_bool("resnet-only", "run only the ResNet space (faster)");
  if (!args.parse(argc, argv)) return 0;

  const auto n_test = static_cast<std::size_t>(args.get_int("test"));
  const int epochs = static_cast<int>(args.get_int("epochs"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  // Paper training sizes per device.
  auto train_size = [](const DeviceSpec& d) -> std::size_t {
    if (d.short_name == "rtx4090") return 8000;
    if (d.short_name == "rpi4") return 1200;
    return 5000;
  };

  std::vector<SupernetSpec> spaces{resnet_spec()};
  if (!args.get_bool("resnet-only")) {
    spaces.push_back(mobilenet_v3_spec());
    spaces.push_back(densenet_spec());
  }

  for (const SupernetSpec& spec : spaces) {
    print_banner(std::cout, "Fig. 10: " + spec.name +
                                " across devices (FCC vs FC vs statistical)");
    TablePrinter table({"Device", "train", "FCC", "FC", "statistical"});
    // Devices are independent experiments: own device instance, own
    // dataset, own fits.
    for (const DeviceSpec& dspec : all_device_specs()) {
      SimulatedDevice device(dspec, seed * 1009 + 13);
      const std::size_t n_train = train_size(dspec);
      const LabeledSet pool =
          generate_dataset(spec, device, SamplingStrategy::kRandom,
                           n_train + n_test, seed + 1);
      LabeledSet train, test;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        MeasuredSample s{pool.archs[i], pool.latencies_ms[i]};
        if (i < n_test) test.add(s);
        else train.add(s);
      }

      std::vector<std::string> row{dspec.name, std::to_string(train.size())};
      for (EncodingKind kind :
           {EncodingKind::kFcc, EncodingKind::kFeatureCount,
            EncodingKind::kStatistical}) {
        const SurrogateResult r =
            run_mlp_experiment(kind, spec, train, test, seed + 4, epochs);
        row.push_back(format_percent(r.accuracy, 1));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }
  std::cout << "Expected shape (paper): FCC >= FC >= statistical on most "
               "devices, with the largest gaps on the\nirregular GPUs for "
               "ResNet and near-parity on MobileNetV3 and the Raspberry "
               "Pi.\n";
  return 0;
}
