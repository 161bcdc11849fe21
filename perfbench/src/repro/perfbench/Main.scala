package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.{DataFrame, PerfbenchAccess, SparkSession}
import repro.cluster.{Dendrogram, Distance, Hac}
import repro.core.Pipeline
import repro.fpm.FPTree
import repro.recipedb.RecipeGen
import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** A fixed input and call sequence.
  *
  * @param seeds generator seeds; iteration i runs on input i mod seeds.size,
  *              and a run makes at least one iteration per seed
  * @param paper true: `Pipeline.run`; false: the pattern path only
  */
final case class Workload(name: String, sf: Double, minSupport: Double, seeds: IndexedSeq[Long], paper: Boolean)

object Workload {

  /** Seeds of the sweep. A fixed window keeps its quality numbers comparable
    * between runs; the `--seed` argument picks where in the window a run
    * starts.
    */
  val SweepSeeds: IndexedSeq[Long] = 42L to 44L

  def apply(name: String, seed: Long): Workload = name match {
    case "paper-sf1"        => Workload(name, 1.0, 0.2, Vector(42L), paper = true)
    case "deep-mine-sf1"    => Workload(name, 1.0, 0.07, Vector(42L), paper = false)
    case "seed-sweep-sf0.1" =>
      val start = Math.floorMod(seed, SweepSeeds.size.toLong).toInt
      Workload(name, 0.1, 0.2, SweepSeeds.drop(start) ++ SweepSeeds.take(start), paper = true)
    case other => throw new IllegalArgumentException(s"unknown workload: $other")
  }
}

/** The pipeline benchmark. Usage (from the repository root, after the build
  * in `perfbench/build.py`):
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *   Main --selftest --out <dir>
  *
  * One JVM, Spark `local[k]` with k = min(4, cores - 1), one closed-loop client.
  * The last stdout line is the result JSON; the line before it records the
  * environment, sample counts and checks. With `--trace 1` a separate
  * traced pass times each layer from outside.
  */
object Main {

  final case class Options(
      workload: String = "", seed: Long = 42, seconds: Int = 10, trace: Boolean = false,
      out: Path = Paths.get(".bench_build"), sourceHash: String = "", gitSha: String = "",
      selftest: Boolean = false,
  )

  val SetupRepeats = 7
  val WarmupSf = 0.02
  val Tolerance = 1e-9

  def main(args: Array[String]): Unit = {
    val code = try {
      val o = parse(args.toList, Options())
      if (o.selftest) SelfTest.run(o) else runBenchmark(o)
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        2
    }
    sys.exit(code)
  }

  private def parse(args: List[String], o: Options): Options = args match {
    case Nil                          => o
    case "--workload" :: v :: rest    => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest        => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest     => parse(rest, o.copy(seconds = v.toInt))
    case "--trace" :: v :: rest       => parse(rest, o.copy(trace = v == "1"))
    case "--out" :: v :: rest         => parse(rest, o.copy(out = Paths.get(v)))
    case "--source-hash" :: v :: rest => parse(rest, o.copy(sourceHash = v))
    case "--git-sha" :: v :: rest     => parse(rest, o.copy(gitSha = v))
    case "--selftest" :: rest         => parse(rest, o.copy(selftest = true))
    case other :: _                   => throw new IllegalArgumentException(s"unknown argument: $other")
  }

  /** Spark task slots: all cores but one, at most four. The spare core runs
    * the Spark driver thread, JIT compilation and GC, which otherwise compete with
    * tasks and make run-to-run times vary.
    */
  def cores: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors() - 1))

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private val started = System.nanoTime()

  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime() - started) / 1e9}%6.1fs] $msg")

  // ---------------------------------------------------------------- set-up

  def session(out: Path): SparkSession = SparkSession.builder
    .master(s"local[$cores]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
    .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
    .getOrCreate()

  final case class Setup(spark: SparkSession, inputs: IndexedSeq[DataFrame], setupS: Seq[Double], genS: Seq[Double])

  /** SparkSession start, generation and cache materialisation, repeated;
    * every repeat but the last stops its session again.
    */
  def setUp(w: Workload, out: Path, t: Tracer): Setup = {
    var last: Option[Setup] = None
    val times = (1 to SetupRepeats).map { _ =>
      last.foreach(_.spark.stop())
      val t0 = System.nanoTime()
      val spark = session(out)
      val t1 = System.nanoTime()
      val inputs = w.seeds.map { s =>
        t.span("recipedb.RecipeGen.recipes") {
          val df = RecipeGen.recipes(spark, w.sf, s).cache()
          df.count()
          df
        }
      }
      val t2 = System.nanoTime()
      last = Some(Setup(spark, inputs, Nil, Nil))
      ((t2 - t0) / 1e9, (t2 - t1) / 1e9)
    }
    last.get.copy(setupS = times.map(_._1), genS = times.map(_._2))
  }

  // ------------------------------------------------------------- iterations

  final case class Iter(input: Int, seconds: Double, outcome: Try[Outcome])

  def iterate(t: Tracer, spark: SparkSession, df: DataFrame, w: Workload): Outcome =
    if (!w.paper) Calls.deepMine(t, df, w.minSupport)
    else if (t eq Tracer.Off) Calls.pipeline(spark, df, w.minSupport)
    else Calls.paper(t, spark, df, w.minSupport)

  /** Closed loop: steps back to back until `seconds` have passed and every
    * input has had a step. Step i runs on input i mod seeds.size.
    */
  def loop[A](w: Workload, seconds: Int)(step: Int => A): Vector[A] = {
    val out = Vector.newBuilder[A]
    val start = System.nanoTime()
    var i = 0
    while (i < w.seeds.size || System.nanoTime() - start < seconds * 1000000000L) {
      out += step(i)
      i += 1
    }
    out.result()
  }

  def timed(i: Int, w: Workload)(body: => Outcome): Iter = {
    val t0 = System.nanoTime()
    val r = Try(body)
    r.failed.foreach(e => log(s"iteration $i threw: $e"))
    Iter(i % w.seeds.size, (System.nanoTime() - t0) / 1e9, r)
  }

  // ---------------------------------------------------------------- checks

  /** Reference answers for one input. */
  final case class Ref(rows: Rows, mined: Reference.Mined, prevalence: Reference.Prevalence,
                       newick: Map[String, String], fm: Map[String, Double])

  def reference(spark: SparkSession, df: DataFrame, w: Workload, out: Path): Ref = {
    val rows = Reference.collect(df)
    val mined = Reference.mine(spark, rows, w.minSupport, cores, out.resolve("reference"))
    val prev = Reference.prevalence(rows)
    val cuisines = prev.cuisines
    val strings = cuisines.map(c => mined.itemsets(c).keySet.map(_.toSeq.sorted.mkString(" + ")))
    val universe = strings.iterator.flatten.toSeq.distinct.sorted
    val vectors = strings.map(s => universe.map(p => if (s(p)) 1.0 else 0.0).toArray)
    val trees: Map[String, Dendrogram] = Pipeline.Metrics.map { m =>
      m -> Hac.cluster(Distance.pdist(vectors, Distance.byName(m)), Calls.Linkage)
    }.toMap + ("authenticity" -> Hac.cluster(Distance.pdist(prev.rel.toSeq, Distance.euclidean), Calls.Linkage))
    Ref(rows, mined, prev, trees.map { case (k, t) => k -> t.newick(cuisines) },
      Calls.fmVsGeo(Tracer.Off, cuisines, trees))
  }

  /** One iteration against the reference.
    *
    * @param failed it threw, or its recipe counts, trees, FM values or
    *               prevalence differ from the reference
    * @param wrong  itemsets missing, extra or with a wrong count
    * @param known  the part of `wrong` that is the known threshold defect:
    *               an itemset whose frequency is exactly support × n, which
    *               the float `ceil` in the miner drops
    */
  final case class Check(failed: Boolean, wrong: Int, known: Int, notes: Seq[String])

  def check(o: Try[Outcome], ref: Ref, minSupport: Double): Check = o match {
    case Failure(e) => Check(failed = true, 0, 0, Seq(s"threw: $e"))
    case Success(o) =>
      val notes = Seq.newBuilder[String]
      var wrong = 0
      var known = 0
      val got = o.patterns.map(p => p.cuisine -> p).toMap
      def show(s: Set[String]) = s.toSeq.sorted.mkString(" + ")
      ref.mined.n.keys.toSeq.sorted.foreach { c =>
        val want = ref.mined.itemsets(c)
        val n = ref.mined.n(c)
        val have = got.get(c).map(_.itemsets.map(fi => fi.items.toSet -> fi.freq).toMap).getOrElse(Map.empty)
        want.foreach { case (s, f) =>
          if (!have.contains(s)) {
            wrong += 1
            if (f < math.ceil(minSupport * n)) { known += 1; notes += s"known miss $c: ${show(s)} ($f/$n)" }
            else notes += s"missing $c: ${show(s)} ($f/$n)"
          } else if (have(s) != f) {
            wrong += 1
            notes += s"count $c: ${show(s)} ${have(s)} vs $f"
          }
        }
        have.keySet.diff(want.keySet).foreach { s =>
          wrong += 1
          notes += s"extra $c: ${show(s)}"
        }
      }
      val countDiff = ref.mined.n.collect { case (c, n) if got.get(c).forall(_.nRecipes != n) => s"$c: recipe count differs" }
      val treeDiff = o.newick.collect { case (k, nw) if !ref.newick.get(k).contains(nw) => s"tree $k differs" }
      val fmDiff = o.fm.collect {
        case (k, v) if ref.fm.get(k).forall(r => math.abs(r - v) > Tolerance) => s"FM $k: $v vs ${ref.fm.get(k)}"
      }
      val prevDiff = o.fingerprints.toSeq.flatMap { fp =>
        val p = ref.prevalence
        if (fp.cuisines != p.cuisines || fp.items != p.items) Seq("prevalence axes differ")
        else {
          val d = fp.matrix.indices.iterator.flatMap(i => fp.matrix(i).indices.map(j => math.abs(fp.matrix(i)(j) - p.rel(i)(j)))).max
          if (d > Tolerance) Seq(s"prevalence max |diff| $d") else Nil
        }
      }
      val diffs = (countDiff ++ treeDiff ++ fmDiff ++ prevDiff).toSeq
      Check(diffs.nonEmpty, wrong, known, notes.result() ++ diffs)
  }

  // ----------------------------------------------------------- the run

  /** Everything one run measured. `iters` holds the untraced iterations,
    * then the traced ones; `outcomes` and `checks` are aligned with it.
    */
  final case class Run(w: Workload, setup: Setup, refs: IndexedSeq[Ref], iters: Vector[Iter],
                       nUntraced: Int, outcomes: Vector[Try[Outcome]], checks: Vector[Check],
                       traced: Option[TracedRun]) {
    def untraced: Vector[Iter] = iters.take(nUntraced)
  }

  final case class TracedRun(tracer: SpanTracer, counters: SparkCounters, iters: Vector[Iter],
                             gcS: Double, heapPeakMb: Double, fpTree: FpTreeBench)

  /** Tags the FP-tree microbench spans (set-up spans keep the tracer's -1). */
  val MicrobenchPhase = -2

  /** Set up, warm up, run the untraced loop and, if asked, the traced one,
    * then check every iteration against the reference.
    */
  def execute(w: Workload, o: Options): Run = {
    val tracer = if (o.trace) Some(new SpanTracer) else None
    val setup = setUp(w, o.out, tracer.getOrElse(Tracer.Off))
    val spark = setup.spark
    log(f"${w.name}: set-up ${setup.setupS.map(s => f"$s%.2f").mkString(", ")} s")

    // Warm the JIT and Spark's code cache on a small input of the same shape.
    val warm = RecipeGen.recipes(spark, WarmupSf, w.seeds.head).cache()
    warm.count()
    iterate(Tracer.Off, spark, warm, w)
    warm.unpersist()
    log(s"${w.name}: warmed up")

    def untracedStep(i: Int) = timed(i, w)(iterate(Tracer.Off, spark, setup.inputs(i % w.seeds.size), w))
    val (untraced, traced) = tracer match {
      case None => (loop(w, o.seconds)(untracedStep), None)
      case Some(t) =>
        // Untraced and traced iterations alternate, so both see the same
        // JIT and cache state and their ratio is the tracing overhead.
        val counters = new SparkCounters
        spark.sparkContext.addSparkListener(counters)
        val gc0 = gcMillis
        heapPools.foreach(_.resetPeakUsage())
        val steps = loop(w, o.seconds) { i =>
          val u = untracedStep(i)
          t.iteration = i
          (u, timed(i, w)(t.span("iteration")(iterate(t, spark, setup.inputs(i % w.seeds.size), w))))
        }
        val gcS = (gcMillis - gc0) / 1000.0 / (2 * steps.size)
        val heapMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
        PerfbenchAccess.drain(spark.sparkContext)
        t.iteration = MicrobenchPhase
        (steps.map(_._1), Some((counters, steps.map(_._2), gcS, heapMb)))
    }
    log(f"${w.name}: ${untraced.size} iterations, ${untraced.map(i => f"${i.seconds}%.2f").mkString(", ")} s")

    val refs = setup.inputs.map(df => reference(spark, df, w, o.out))
    log(s"${w.name}: reference ready")
    val iters = untraced ++ traced.map(_._2).getOrElse(Vector.empty)
    val outcomes = complete(w, refs, iters)
    val checks = outcomes.zip(iters).map { case (oc, it) => check(oc, refs(it.input), w.minSupport) }
    val tracedRun = for (t <- tracer; (counters, its, gcS, heapMb) <- traced)
      yield TracedRun(t, counters, its, gcS, heapMb, fpTreeBench(t, refs.head.rows, w.minSupport))
    Run(w, setup, refs, iters, untraced.size, outcomes, checks, tracedRun)
  }

  /** The pattern path stops at the trees and never calls `Authenticity`.
    * For its FM and claim numbers the authenticity tree is built here,
    * outside the timed loop, from the reference prevalence, so the workload
    * stays free of authenticity work.
    */
  def complete(w: Workload, refs: IndexedSeq[Ref], iters: Vector[Iter]): Vector[Try[Outcome]] =
    if (w.paper) iters.map(_.outcome)
    else iters.map(it => it.outcome.map { oc =>
      val rel = refs(it.input).prevalence.rel
      val trees = oc.trees + ("authenticity" ->
        Hac.cluster(Distance.pdist(rel.toSeq, Distance.euclidean), Calls.Linkage))
      oc.copy(trees = trees, fm = Calls.fmVsGeo(Tracer.Off, oc.cuisines, trees))
    })

  // ------------------------------------------------------ FP-tree microbench

  final case class FpTreeBench(cuisine: String, transactions: Int, buildS: Double, extractS: Double,
                               nodes: Long, itemsets: Long)

  /** `FPTree.add` over every transaction of the largest cuisine, ranked by
    * descending item frequency, then `FPTree.extract` at the workload's
    * support; medians of three repeats.
    */
  def fpTreeBench(t: SpanTracer, rows: Rows, minSupport: Double): FpTreeBench = {
    val (cuisine, idx) = rows.cuisine.indices.groupBy(rows.cuisine(_)).maxBy(_._2.size)
    val txs = idx.map(rows.items(_))
    val n = txs.size
    var minCount = 1L
    while (minCount.toDouble / n < minSupport) minCount += 1
    val counts = txs.iterator.flatMap(_.distinct).toSeq.groupBy(identity).map { case (k, v) => k -> v.size }
    val rank = counts.toSeq.filter(_._2 >= minCount).sortBy { case (i, c) => (-c, i) }.map(_._1).zipWithIndex.toMap
    val encoded = txs.map(tx => ArraySeq.unsafeWrapArray(tx.distinct.flatMap(rank.get).sorted.toArray))
    val reps = (1 to 3).map { _ =>
      val b0 = System.nanoTime()
      val tree = t.span("fpm.FPTree.add") {
        val tree = new FPTree[Int]
        encoded.foreach(tx => tree.add(tx))
        tree
      }
      val b1 = System.nanoTime()
      val found = t.span("fpm.FPTree.extract")(tree.extract(minCount).size.toLong)
      val b2 = System.nanoTime()
      ((b1 - b0) / 1e9, (b2 - b1) / 1e9, nodes(tree.root), found)
    }
    FpTreeBench(cuisine, n, median(reps.map(_._1)), median(reps.map(_._2)), reps.head._3, reps.head._4)
  }

  private def nodes(root: FPTree.Node[Int]): Long = {
    var count = 0L
    var stack = List(root)
    while (stack.nonEmpty) {
      val n = stack.head
      stack = stack.tail
      count += 1
      stack = n.children.values.toList ::: stack
    }
    count - 1
  }

  private def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq

  // -------------------------------------------------------------- metrics

  final case class Metric(name: String, unit: String, value: Double, samples: Int)

  /** Quality numbers, from the first good outcome of each input. */
  def quality(run: Run): Seq[Metric] = {
    val firsts = run.w.seeds.indices.flatMap { i =>
      run.outcomes.zip(run.iters).collectFirst { case (Success(o), it) if it.input == i => o }
    }
    if (firsts.size < run.w.seeds.size) return Nil
    val claims = firsts.flatMap(Quality.claims)
    val tableI = firsts.map(o => Quality.tableI(o.patterns))
    val n = firsts.size
    Seq("euclidean", "cosine", "jaccard", "authenticity").map { m =>
      Metric(s"fm_geo.$m", "ratio", firsts.map(_.fm(m)).sum / n, n)
    } ++ Seq(
      Metric("claims_held_frac", "ratio", claims.count(_._2).toDouble / claims.size, claims.size),
      Metric("table1_count_r", "ratio", tableI.map(_._1).sum / n, n),
      Metric("table1_support_err_max", "support", tableI.map(_._2).max, n),
    )
  }

  def recipesPerIteration(run: Run): Double =
    run.untraced.map(it => run.refs(it.input).rows.size.toDouble).sum / run.untraced.size

  def endToEnd(run: Run): Seq[Metric] = {
    val runS = median(run.untraced.map(_.seconds))
    Seq(
      Metric("run_s", "s", runS, run.untraced.size),
      Metric("recipes_per_s", "1/s", recipesPerIteration(run) / runS, run.untraced.size),
      Metric("setup_s", "s", median(run.setup.setupS), run.setup.setupS.size),
    ) ++ quality(run)
  }

  /** Per-layer numbers of one traced iteration. */
  def layers(run: Run, tr: TracedRun, it: Int): Map[String, Double] = {
    val spans = tr.tracer.spans.filter(_.iteration == it).toSeq
    def named(n: String) = spans.filter(_.name == n)
    def wall(n: String) = named(n).map(_.seconds).sum
    def stats(n: String) = named(n).map(s => tr.counters.stats(SpanTracer.group(s.id)))
    def total(n: String)(f: GroupStats => Double) = stats(n).map(f).sum
    def idle(n: String) = named(n).map { s =>
      SparkCounters.idleMs(s.startMs, s.endMs, tr.counters.stats(SpanTracer.group(s.id)).jobIntervalsMs.toSeq)
    }.sum / 1000.0
    val mb = 1048576.0
    val root = spans.filter(_.parent == -1)
    val covered = spans.filter(_.parent != -1).map(tr.tracer.selfSeconds).sum
    val oc = tr.iters(it).outcome.toOption
    val miner = "core.PatternMiner"
    val auth = "core.Authenticity"
    val authRows = total(auth)(_.rowsCollected.toDouble)
    val nonZero = run.refs(tr.iters(it).input).prevalence.nonZero
    Map(
      "PatternMiner.wall_s" -> wall(miner),
      "PatternMiner.spark_jobs" -> total(miner)(_.jobs.toDouble),
      "PatternMiner.spark_tasks" -> total(miner)(_.tasks.toDouble),
      "PatternMiner.task_cpu_s" -> total(miner)(_.taskCpuNs / 1e9),
      "PatternMiner.shuffle_write_mb" -> total(miner)(_.shuffleWriteBytes / mb),
      "PatternMiner.shuffle_read_mb" -> total(miner)(_.shuffleReadBytes / mb),
      "PatternMiner.jobs_idle_s" -> idle(miner),
      "PatternMiner.core_busy_frac" -> (if (wall(miner) > 0) total(miner)(_.taskRunMs / 1000.0) / (wall(miner) * cores) else 0.0),
      "PatternMiner.itemsets" -> oc.map(_.patterns.map(_.nPatterns).sum.toDouble).getOrElse(0.0),
      "Authenticity.wall_s" -> wall(auth),
      "Authenticity.spark_jobs" -> total(auth)(_.jobs.toDouble),
      "Authenticity.task_cpu_s" -> total(auth)(_.taskCpuNs / 1e9),
      "Authenticity.shuffle_write_mb" -> total(auth)(_.shuffleWriteBytes / mb),
      "Authenticity.shuffle_read_mb" -> total(auth)(_.shuffleReadBytes / mb),
      "Authenticity.rows_collected" -> authRows,
      "Authenticity.nonzero_frac" -> (if (authRows > 0) nonZero / authRows else 0.0),
      "PatternFeatures.wall_s" -> wall("core.PatternFeatures"),
      "PatternFeatures.universe" -> oc.map(_.universe.toDouble).getOrElse(0.0),
      "cluster.pdist_s" -> wall("cluster.Distance.pdist"),
      "cluster.hac_s" -> wall("cluster.Hac.cluster"),
      "cluster.fm_s" -> wall("cluster.TreeCompare.meanFowlkesMallows"),
      "cluster.elbow_s" -> wall("cluster.KMeans.elbow"),
      "geo.wall_s" -> wall("geo.Regions.distanceMatrix"),
      "trace.coverage" -> covered / root.map(_.seconds).sum,
    )
  }

  def perLayer(run: Run, tr: TracedRun): Seq[Metric] = {
    val n = tr.iters.size
    val byIter = tr.iters.indices.map(layers(run, tr, _))
    val units = Map("_s" -> "s", "_mb" -> "MB", "_frac" -> "ratio", "coverage" -> "ratio")
    def unit(name: String) = units.collectFirst { case (suffix, u) if name.endsWith(suffix) => u }.getOrElse("count")
    val layerMetrics = byIter.head.keys.toSeq.sorted.map(k => Metric(k, unit(k), median(byIter.map(_(k))), n))
    val checks = run.checks
    val fp = tr.fpTree
    Seq(
      Metric("recipedb.gen_s", "s", median(run.setup.genS), run.setup.genS.size),
      Metric("recipedb.recipes", "count", run.refs.map(_.rows.size.toDouble).sum, 1),
      Metric("fpm.tree_build_s", "s", fp.buildS, 3),
      Metric("fpm.tree_extract_s", "s", fp.extractS, 3),
      Metric("fpm.tree_nodes", "count", fp.nodes.toDouble, 1),
      Metric("fpm.itemsets", "count", fp.itemsets.toDouble, 1),
      Metric("jvm.gc_s", "s", tr.gcS, n),
      Metric("jvm.heap_peak_mb", "MB", tr.heapPeakMb, 1),
      Metric("trace.overhead_frac", "ratio",
        median(tr.iters.map(_.seconds)) / median(run.untraced.map(_.seconds)) - 1, n),
      Metric("failed_frac", "ratio", checks.count(_.failed).toDouble / checks.size, checks.size),
      Metric("wrong_itemsets", "count", checks.map(_.wrong).max.toDouble, checks.size),
    ) ++ layerMetrics
  }

  /** Traced iteration i must give the trees and FM values of untraced
    * iteration i, which ran on the same input.
    */
  def tracedMatches(run: Run): Seq[String] = run.traced.toSeq.flatMap { tr =>
    val untraced = run.outcomes.take(run.nUntraced)
    val traced = run.outcomes.drop(run.nUntraced)
    traced.zipWithIndex.flatMap {
      case (Success(t), i) =>
        untraced.zip(run.untraced).collectFirst { case (Success(u), it) if it.input == tr.iters(i).input => u } match {
          case Some(u) if u.newick != t.newick => Seq(s"traced iteration $i: trees differ from Pipeline.run")
          case Some(u) if u.fm.keySet != t.fm.keySet ||
              u.fm.exists { case (k, v) => math.abs(t.fm(k) - v) > Tolerance } =>
            Seq(s"traced iteration $i: FM differs from Pipeline.run")
          case Some(_) => Nil
          case None    => Seq(s"traced iteration $i: no untraced result on its input")
        }
      case _ => Nil
    }
  }

  def environment(run: Run, o: Options): Json.Obj = {
    val conf = run.setup.spark.conf
    Seq(
      "workload" -> run.w.name, "sf" -> run.w.sf, "seeds" -> run.w.seeds, "seed_arg" -> o.seed,
      "min_support" -> run.w.minSupport, "linkage" -> Calls.Linkage.name,
      "cores" -> cores, "master" -> run.setup.spark.sparkContext.master,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "adaptive" -> conf.get("spark.sql.adaptive.enabled"),
      "java" -> System.getProperty("java.version"), "spark" -> run.setup.spark.version,
      "scala" -> scala.util.Properties.versionNumberString,
      "git_sha" -> Option(o.gitSha).filter(_.nonEmpty), "source_hash" -> o.sourceHash,
      "run_seconds" -> o.seconds, "trace" -> o.trace,
    )
  }

  def runBenchmark(o: Options): Int = {
    val w = Workload(o.workload, o.seed)
    val run = execute(w, o)
    val e2e = endToEnd(run)
    val layer = run.traced.map(perLayer(run, _)).getOrElse(Nil)
    val drift = tracedMatches(run)
    val fpOk = run.traced.forall { tr =>
      run.refs.head.mined.itemsets(tr.fpTree.cuisine).size.toLong == tr.fpTree.itemsets
    }
    val failed = run.checks.count(_.failed)
    val correct = failed == 0 && run.checks.forall(c => c.wrong == c.known) && drift.isEmpty && fpOk &&
      quality(run).nonEmpty
    val notes = (run.checks.flatMap(_.notes) ++ drift ++
      (if (fpOk) Nil else Seq("FP-tree microbench itemsets differ from the reference"))).distinct
    notes.take(40).foreach(n => log(s"check: $n"))

    val metrics = if (o.trace) layer else e2e
    metrics.foreach(m => log(f"${m.name}%-32s ${m.value}%14.6f ${m.unit}%-6s n=${m.samples}"))
    val info: Json.Obj = Seq(
      "environment" -> environment(run, o),
      "iteration_s" -> run.untraced.map(_.seconds),
      "traced_iteration_s" -> run.traced.map(_.iters.map(_.seconds)),
      "setup_s" -> run.setup.setupS,
      "samples" -> metrics.map(m => m.name -> m.samples),
      "failed_frac" -> run.checks.count(_.failed).toDouble / run.checks.size,
      "wrong_itemsets" -> run.checks.map(_.wrong).max,
      "known_defect_itemsets" -> run.checks.map(_.known).max,
      "claims" -> run.outcomes.collectFirst { case Success(x) => Quality.claims(x) },
      "fp_tree" -> run.traced.map { tr =>
        val f = tr.fpTree
        Seq("cuisine" -> f.cuisine, "transactions" -> f.transactions, "nodes" -> f.nodes,
          "itemsets" -> f.itemsets, "build_s" -> f.buildS, "extract_s" -> f.extractS)
      },
      "checks" -> notes.take(40),
    )
    val result: Json.Obj = Seq(
      "correct" -> correct,
      "attempted" -> run.checks.size,
      "failed" -> failed,
      "metrics" -> metrics.map(m => m.name -> Seq("value" -> m.value, "unit" -> m.unit)),
    )
    val report = info ++ Seq("result" -> result, "spans" -> run.traced.map(_.tracer.spans.map { s =>
      Seq("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "iteration" -> s.iteration,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "self_s" -> run.traced.get.tracer.selfSeconds(s))
    }))
    val dir = o.out.resolve("results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json"), Json(report).getBytes(UTF_8))
    run.setup.spark.stop()
    println(Json(info))
    println(Json(result))
    0
  }
}
